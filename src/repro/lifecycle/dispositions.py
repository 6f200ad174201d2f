"""What happens to forgotten data (paper §1).

    "A DBMS might be as radical as to delete all data being forgotten.
    A lighter and more feasible option is to stop indexing the
    forgotten data. ... A more cost-effective option is to move
    forgotten data to cheap slow cold-storage.  Finally, a possibly
    poor information retention approach would be to keep a summary."

Each option is a :class:`Disposition`: a table observer that reacts to
forget events and defines *visibility* — which tuples a complete scan
and an index-based plan can still fetch.  Dispositions compose with any
amnesia policy, which is why the policies themselves only *select*
victims.
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from ..coldstore.store import ColdStore
from ..storage.table import Table
from ..summaries.summary import SummaryStore

__all__ = [
    "Disposition",
    "MarkOnlyDisposition",
    "HardDeleteDisposition",
    "StopIndexingDisposition",
    "ColdStorageDisposition",
    "SummaryDisposition",
]

_INT64_BYTES = 8


def _forgotten_rows(
    table: Table, positions: np.ndarray
) -> tuple[int, dict[str, np.ndarray]]:
    """(forget epoch, ``{column: values}``) of the rows in one forget event.

    The epoch is the newest one the rows were forgotten at: a live
    forget stamps every row with the same epoch, a backfill spans many.
    """
    positions = np.asarray(positions, dtype=np.int64)
    epoch = int(table.forgotten_epochs()[positions].max(initial=-1))
    values = {name: table.values(name)[positions] for name in table.column_names}
    return epoch, values


class Disposition(ABC):
    """Base class: forgotten-data handling strategy.

    Subclasses override the forget hook and/or the visibility masks.
    The default visibility is the paper's simulator behaviour: forgotten
    tuples are invisible to every plan.
    """

    #: Short name used in experiment tables.
    name: str = "abstract"

    #: Whether forgotten tuples can be brought back on explicit request.
    recoverable: bool = False

    def on_insert(self, table: Table, positions: np.ndarray) -> None:
        """Table hook (default: nothing to do on insert)."""

    def on_forget(self, table: Table, positions: np.ndarray) -> None:
        """Table hook (default: marking alone is enough)."""

    def scan_mask(self, table: Table) -> np.ndarray:
        """Rows a *complete scan* fetches (default: active only)."""
        return table.active_mask()

    def index_mask(self, table: Table) -> np.ndarray:
        """Rows an *index-based plan* can reach (default: active only)."""
        return table.active_mask()

    def stats(self) -> dict:
        """Disposition-specific accounting for reports."""
        return {"disposition": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MarkOnlyDisposition(Disposition):
    """Tuples are merely marked inactive — the simulator's ground truth.

    Storage is not reclaimed; the benefit is purely that queries skip
    the forgotten tuples.  This is the paper's measurement mode: "the
    simulator only marks tuples as either active or forgotten" (§2.3).
    """

    name = "mark"


class HardDeleteDisposition(Disposition):
    """The radical option: forgotten data is physically destroyed.

    The simulator's table still retains values for oracle accounting,
    but this disposition records the reclaimed bytes and forbids
    recovery — the information is gone.
    """

    name = "delete"
    recoverable = False

    def __init__(self) -> None:
        self.bytes_reclaimed = 0
        self.tuples_deleted = 0

    def on_forget(self, table, positions):
        n = int(np.asarray(positions).size)
        self.tuples_deleted += n
        self.bytes_reclaimed += n * _INT64_BYTES * len(table.column_names)

    def stats(self):
        return {
            "disposition": self.name,
            "tuples_deleted": self.tuples_deleted,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


class StopIndexingDisposition(Disposition):
    """Forgotten tuples leave the indexes but stay on disk.

    "A complete scan will fetch all data, but a fast index-based query
    evaluation will skip the forgotten data" (§1).  The asymmetry is
    the whole point: precision depends on the *plan*, and experiment I1
    measures that trade (scan: full recall, full cost; index: amnesiac
    recall, amnesiac cost).
    """

    name = "stop-indexing"
    recoverable = True

    def scan_mask(self, table):
        return np.ones(table.total_rows, dtype=bool)


class ColdStorageDisposition(Disposition):
    """Forgotten tuples migrate to the cold tier.

    Invisible to all plans (like mark-only) but recoverable on explicit
    user action, paying the cold tier's dollar and latency price.
    """

    name = "cold"
    recoverable = True

    def __init__(self, store: ColdStore | None = None):
        self.store = store or ColdStore()

    def on_forget(self, table, positions):
        epoch, values = _forgotten_rows(table, positions)
        self.store.archive(epoch=epoch, positions=positions, values_by_column=values)

    def recover(self, positions: np.ndarray) -> dict[str, np.ndarray]:
        """Fetch forgotten tuples back (cost-accounted by the store)."""
        return self.store.retrieve(positions)

    def stats(self):
        return {
            "disposition": self.name,
            "archived_tuples": self.store.tuple_count,
            "archived_bytes": self.store.stored_bytes,
            "retrieval_cost_usd": self.store.retrieval_cost_so_far(),
        }


class SummaryDisposition(Disposition):
    """Forgotten tuples collapse into min/max/avg/count summaries.

    "This will reduce the storage drastically but the DBMS will only be
    able to answer specific aggregation queries" (§1) — range queries
    lose the tuples for good, whole-table aggregates stay exact.
    """

    name = "summary"
    recoverable = False

    def __init__(self, store: SummaryStore | None = None):
        self.store = store or SummaryStore()

    def on_forget(self, table, positions):
        epoch, values = _forgotten_rows(table, positions)
        self.store.add(epoch=epoch, values_by_column=values)

    def stats(self):
        return {
            "disposition": self.name,
            "summarised_tuples": self.store.tuple_count,
            "summary_bytes": self.store.nbytes,
        }
