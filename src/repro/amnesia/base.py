"""Amnesia policy protocol.

A policy answers one question (paper §3): *given the current table
state, which ``n`` active tuples shall be forgotten?*  The simulator
then marks those tuples inactive, restoring the DBSIZE storage budget.

Policies never mutate the table themselves — they only select.  That
separation is what lets the same policy drive different forgotten-data
dispositions (mark-only, cold storage, summaries; see
:mod:`repro.lifecycle`).

Policies may keep private state across epochs (the area policy's hole
list, rot's learned frequencies); :meth:`AmnesiaPolicy.reset` restores
the initial state so one policy object can serve several runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._util.errors import AmnesiaError, InsufficientVictimsError
from ..storage.table import Table

__all__ = ["AmnesiaPolicy"]


def without(ascending: np.ndarray, exclude: np.ndarray | None) -> np.ndarray:
    """Sorted, distinct ``ascending`` minus any ``exclude`` entries (found
    by binary search, so unsorted, repeated or absent ones are fine)."""
    if exclude is None or len(exclude) == 0 or ascending.size == 0:
        return ascending
    exclude = np.asarray(exclude, dtype=np.int64).ravel()
    at = np.minimum(np.searchsorted(ascending, exclude), ascending.size - 1)
    keep = np.ones(ascending.size, dtype=bool)
    keep[at[ascending[at] == exclude]] = False
    return ascending[keep]


class AmnesiaPolicy(ABC):
    """Base class for all forgetting strategies.

    Subclasses implement :meth:`select_victims` and set :attr:`name`.
    ``allows_overshoot`` marks policies that may legitimately return
    *more* than ``n`` victims (the privacy wrapper must purge every
    expired tuple even when that shrinks the database below DBSIZE).
    """

    #: Short name used in registries, figures and CLI flags.
    name: str = "abstract"

    #: Whether select_victims may return more than ``n`` victims.
    allows_overshoot: bool = False

    @abstractmethod
    def select_victims(
        self,
        table: Table,
        n: int,
        epoch: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return positions of the tuples to forget.

        Parameters
        ----------
        table:
            Current table state (activity bitmap, epochs, frequencies).
        n:
            Number of victims required — exactly ``n`` unless the
            policy ``allows_overshoot``.
        epoch:
            The epoch performing the forgetting (for age computations).
        rng:
            Policy-owned random generator.
        exclude:
            Positions that must not be selected (used by composite
            policies to combine strategies without duplicate victims).
        """

    def on_insert(
        self, table: Table, positions: np.ndarray, epoch: int
    ) -> None:
        """Hook: called after each insert batch (default: no-op)."""

    def reset(self) -> None:
        """Restore initial policy state (default: stateless no-op)."""

    # -- shared helpers ----------------------------------------------------

    def _candidates(
        self, table: Table, exclude: np.ndarray | None
    ) -> np.ndarray:
        """Active positions minus the exclusion set, ascending."""
        return without(table.active_positions(), exclude)

    @staticmethod
    def _inserted_through(table: Table, epoch: int) -> int:
        """End of the rows inserted at or before ``epoch``: cohorts tile
        the history in epoch order, so an age cut is a position prefix."""
        through = table.cohorts.count_through(epoch)
        return int(table.cohorts.stops()[through - 1]) if through else 0

    def _require(self, candidates: np.ndarray, n: int) -> None:
        """Raise unless ``n`` victims can be supplied."""
        if n < 0:
            raise AmnesiaError(f"victim count must be >= 0, got {n}")
        if n > candidates.size:
            raise InsufficientVictimsError(n, int(candidates.size))

    def validate_victims(
        self, table: Table, victims: np.ndarray, n: int
    ) -> np.ndarray:
        """Check a victim set: distinct, active, and of the right size.

        The simulator calls this on every selection; policies are
        untrusted in the sense that a buggy strategy should fail loudly
        here rather than silently corrupt the storage-budget invariant.
        Returns the victims sorted ascending (a copy), which
        :meth:`Table.forget` takes as they are.
        """
        victims = np.asarray(victims, dtype=np.int64)
        if victims.ndim != 1:
            raise AmnesiaError(f"victims must be 1-D, got shape {victims.shape}")
        victims = np.sort(victims)
        if (victims[1:] == victims[:-1]).any():
            raise AmnesiaError(f"policy {self.name!r} returned duplicate victims")
        if victims.size != n and not (self.allows_overshoot and victims.size > n):
            raise AmnesiaError(
                f"policy {self.name!r} returned {victims.size} victims, expected {n}"
            )
        if victims.size and not table.is_active(victims).all():
            raise AmnesiaError(
                f"policy {self.name!r} selected already-forgotten tuples"
            )
        return victims

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
