"""Compressed cohort storage: query the history without decompressing it.

"Data compression can be called upon to postpone the decisions to
forget data" (§4.4).  :class:`CompressedCohortStore` puts that on the
query path: cold cohorts — insertion batches old enough that no new
values will ever land in them (columns are append-only; amnesia only
flips activity bits) — are *demoted* into per-column
:func:`~repro.compression.codecs.best_codec`-chosen compressed blocks,
and range predicates are evaluated **directly on the encoded form**
wherever the codec allows:

``dict``
    The dictionary is sorted (``np.unique`` order), so a value range
    ``[low, high)`` binary-searches to a *code* range
    ``[lo_code, hi_code)`` and the predicate tests bit-packed codes —
    the dictionary itself is never gathered.

``for``
    Values are ``reference + offset`` with offsets in the uint64
    domain, so the bounds shift by the reference into offset space and
    the predicate compares bit-packed offsets — no value
    reconstruction.

``rle``
    The predicate runs over the run *values* (O(runs), not O(rows))
    and expands the run verdicts with ``np.repeat``.

``raw``
    The stored values are the values; the mask is computed in place.

Every block keeps its exact value ``[min, max]``, so a probe outside
the bounds short-circuits to all-``False`` and a probe covering them
to all-``True`` without touching the payload at all — the same
zone-style quick check :class:`~repro.storage.cohorts.CohortZoneMap`
applies one level up.

Demotion is **age-based and deterministic**: a cohort is cold once
``current_epoch - cohort.epoch >= min_age``.  The rule depends only on
the insert timeline — never on plan mode, worker count or query
traffic — so every configuration demotes the same cohorts at the same
epochs, which is what keeps compressed execution inside the
equivalence harness's bit-identical contract.  Demotion never touches
the raw column (the trust-nothing scan baseline still reads it); the
win is that pruned access paths answer from the compressed form, and
the byte accounting (:meth:`CompressedCohortStore.byte_report`) shows
how much history a fixed byte budget now retains.

The raw column stays resident in memory, but a checkpoint (format 6,
:mod:`repro.storage.io`) saves a demoted cohort's values only as its
block: the saved column holds just the rows no block covers, and a
load decodes the blocks back into place before the table replays.
"""

from __future__ import annotations

import numpy as np

from .._util.errors import CompressionError, StorageError
from ..compression.bitpack import unpack_ints
from ..compression.codecs import CompressedBlock, best_codec, make_codec

__all__ = ["CompressedCohortStore", "DECODE_FACTORS"]

_INT64_BYTES = 8
_UINT64_SPAN = 1 << 64

#: Relative cost of considering one row through each codec, against a
#: raw in-memory scan at 1.0.  ``dict``/``for`` evaluate on bit-packed
#: codes (unpack, no value reconstruction); ``rle`` re-expands run
#: verdicts; ``raw`` blocks read like the plain column.  The cost
#: model's decode term prices ``factor - 1`` extra work per row so
#: plans route around expensive decompression.  Every surcharge is a
#: multiple of 1/4, so rows x surcharge sums are exact in float64 in
#: any order.
DECODE_FACTORS = {"raw": 1.0, "dict": 1.25, "for": 1.25, "rle": 2.5}


def record_block(record) -> CompressedBlock:
    """The block one :meth:`CompressedCohortStore.state` record holds."""
    scalars = record["scalars"]
    payload: dict = {
        key[len("param_") :]: int(value)
        for key, value in scalars.items()
        if key.startswith("param_")
    }
    payload.update(record["arrays"])
    return CompressedBlock(
        codec_name=scalars["codec"],
        n_values=int(scalars["n_values"]),
        payload=payload,
        nbytes=int(scalars["nbytes"]),
    )


class CompressedCohortStore:
    """Best-codec compressed blocks for demoted (cold) cohorts.

    Parameters
    ----------
    table:
        The table whose cohorts may be demoted.
    columns:
        Columns to compress on demotion (default: all).
    min_age:
        Epoch age at which a cohort becomes cold: ``demote_cold(e)``
        demotes every cohort with ``e - cohort.epoch >= min_age``.
    """

    def __init__(self, table, columns=None, *, min_age: int = 2):
        names = tuple(columns) if columns is not None else table.column_names
        if not names:
            raise StorageError("compressed store needs at least one column")
        for name in names:
            table.values(name)  # validates existence
        if min_age < 1:
            raise StorageError(f"min_age must be >= 1, got {min_age}")
        self.table = table
        self.min_age = int(min_age)
        self._columns = names
        #: cohort ordinal -> column -> CompressedBlock
        self._blocks: dict[int, dict[str, CompressedBlock]] = {}
        #: cohort ordinal -> column -> exact (vmin, vmax)
        self._bounds: dict[int, dict[str, tuple[int, int]]] = {}
        #: block start position -> cohort ordinal (range lookup)
        self._by_start: dict[int, int] = {}
        #: column -> per-cohort decode surcharge (``factor - 1``, 0 raw)
        self._surcharge = {
            name: np.zeros(0, dtype=np.float64) for name in names
        }
        #: First cohort ordinal the last ``demote_cold`` did not pass.
        self._cold_through = 0
        self._generation = 0
        # Access accounting: how compressed probes were answered.
        self._pruned_blocks = 0     # min/max quick reject/accept, no payload read
        self._direct_blocks = 0     # evaluated on codes/offsets/runs
        self._decoded_blocks = 0    # raw blocks (values read as stored)

    # -- schema ---------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """Columns compressed on demotion."""
        return self._columns

    def covers(self, column: str) -> bool:
        """True when ``column`` is compressed on demotion."""
        return column in self._columns

    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every demotion.

        Folded into the planner's plan-validity token: a cached plan
        priced before a demotion must be re-priced (the decode term
        changed), exactly like an index registration.
        """
        return self._generation

    @property
    def demoted_count(self) -> int:
        """Cohorts currently held in compressed form."""
        return len(self._blocks)

    @property
    def demoted_rows(self) -> int:
        """Rows covered by compressed blocks."""
        sizes = self.table.cohorts.stops() - self.table.cohorts.starts()
        return int(sizes[list(self._blocks)].sum())

    # -- demotion -------------------------------------------------------

    def demote(self, ordinal: int) -> bool:
        """Demote one cohort (by log ordinal) into compressed blocks.

        Idempotent: an already-demoted or empty cohort is a no-op.
        Returns True when a demotion actually happened.
        """
        log = self.table.cohorts
        ordinal = range(len(log))[ordinal]  # IndexError as log[ordinal]
        cohort = log[ordinal]
        if ordinal in self._blocks or cohort.size == 0:
            return False
        blocks: dict[str, CompressedBlock] = {}
        bounds: dict[str, tuple[int, int]] = {}
        for name in self._columns:
            window = self.table.values(name)[cohort.start : cohort.stop]
            blocks[name] = best_codec(window)
            bounds[name] = (int(window.min()), int(window.max()))
        self._install(ordinal, blocks, bounds)
        self._generation += 1
        return True

    def _install(
        self,
        ordinal: int,
        blocks: dict[str, CompressedBlock],
        bounds: dict[str, tuple[int, int]],
    ) -> None:
        """Record one demoted cohort's blocks, bounds and surcharges."""
        self._blocks.setdefault(ordinal, {}).update(blocks)
        self._bounds.setdefault(ordinal, {}).update(bounds)
        self._by_start[int(self.table.cohorts.starts()[ordinal])] = ordinal
        for name, block in blocks.items():
            if name in self._surcharge:
                factor = DECODE_FACTORS.get(block.codec_name, 1.0)
                self._surcharge_upto(name, ordinal + 1)[ordinal] = factor - 1.0

    def _surcharge_upto(self, column: str, cohorts: int) -> np.ndarray:
        """``column``'s surcharge array, zero-grown to ``>= cohorts`` entries."""
        surcharge = self._surcharge[column]
        if surcharge.size < cohorts:
            grown = np.zeros(max(cohorts, 2 * surcharge.size))
            grown[: surcharge.size] = surcharge
            surcharge = self._surcharge[column] = grown
        return surcharge

    def demote_cold(self, current_epoch: int) -> int:
        """Demote every cohort aged ``>= min_age`` epochs; return the count.

        Deterministic in the insert timeline alone: the same epoch
        sequence demotes the same cohorts regardless of plan mode,
        statistics source or worker count.  Epochs increase along the
        log, so the cold cohorts are a prefix of the log and every one
        a call passes is cold for good (demoted, or empty forever): the
        next call resumes at the first ordinal this one did not pass
        instead of walking the whole log.
        """
        cold = self.table.cohorts.count_through(current_epoch - self.min_age)
        demoted = sum(self.demote(o) for o in range(self._cold_through, cold))
        self._cold_through = max(self._cold_through, cold)
        return demoted

    # -- lookup ---------------------------------------------------------

    def block_at(self, start: int, stop: int, column: str):
        """The block covering exactly ``[start, stop)``, or ``None``.

        Candidate ranges from the zone map are whole cohorts (and
        intersections of whole-cohort lists over the same tiling are
        whole cohorts too), so an exact-span match is the common case;
        any other range falls back to the raw column.
        """
        ordinal = self._by_start.get(int(start))
        if ordinal is None or column not in self._columns:
            return None
        if self.table.cohorts.stops()[ordinal] != stop:
            return None
        return ordinal, self._blocks[ordinal][column]

    def bounds_at(self, ordinal: int, column: str) -> tuple[int, int]:
        """Exact value ``(min, max)`` of a demoted block."""
        return self._bounds[ordinal][column]

    # -- compressed predicate evaluation --------------------------------

    def range_mask(
        self, ordinal: int, column: str, low: int, high: int
    ) -> np.ndarray:
        """Boolean mask of ``low <= value < high`` over one demoted cohort.

        Bit-identical to evaluating the predicate on the raw window —
        codecs are lossless and block bounds are exact — but computed
        on the encoded form wherever the codec allows.
        """
        block = self._blocks[ordinal][column]
        n = block.n_values
        vmin, vmax = self._bounds[ordinal][column]
        if vmin >= high or vmax < low:
            self._pruned_blocks += 1
            return np.zeros(n, dtype=bool)
        if vmin >= low and vmax < high:
            self._pruned_blocks += 1
            return np.ones(n, dtype=bool)
        name = block.codec_name
        if name == "dict":
            dictionary = block.payload["dictionary"]
            # A bound outside the block takes the dictionary's end: numpy
            # would compare one past the int64 range as an inexact float.
            lo_code = (
                0 if low <= vmin
                else int(np.searchsorted(dictionary, low, side="left"))
            )
            hi_code = (
                dictionary.size if high > vmax
                else int(np.searchsorted(dictionary, high, side="left"))
            )
            codes = unpack_ints(
                block.payload["packed"],
                block.payload["bits"],
                n,
                dtype=np.uint64,
            )
            self._direct_blocks += 1
            return (codes >= np.uint64(lo_code)) & (codes < np.uint64(hi_code))
        if name == "for":
            reference = int(block.payload["reference"])
            offsets = unpack_ints(
                block.payload["packed"],
                block.payload["bits"],
                n,
                dtype=np.uint64,
            )
            # Shift the probe into the offset domain.  All offsets are
            # >= 0, so a lower bound at or below the reference is
            # vacuous; an upper bound of 2**64 (possible because high
            # may exceed reference by the full int64 span) is too.
            lo_off = max(low - reference, 0)
            hi_off = high - reference  # > 0: high > vmin == reference here
            mask = offsets >= np.uint64(lo_off)
            if hi_off < _UINT64_SPAN:
                mask &= offsets < np.uint64(hi_off)
            self._direct_blocks += 1
            return mask
        if name == "rle":
            runs = block.payload["runs"]
            run_mask = (runs >= low) & (runs < high)
            self._direct_blocks += 1
            return np.repeat(run_mask, block.payload["lengths"])
        if name == "raw":
            window = block.payload["values"]
            self._decoded_blocks += 1
            return (window >= low) & (window < high)
        raise CompressionError(f"unknown codec {name!r} in compressed block")

    def decode(self, ordinal: int, column: str) -> np.ndarray:
        """Materialize one demoted cohort's column (tests, repair)."""
        block = self._blocks[ordinal][column]
        return make_codec(block.codec_name).decode(block)

    # -- cost-model pricing ---------------------------------------------

    def decode_surcharge(self, column: str):
        """Per-cohort decode surcharge of ``column``, one entry per cohort.

        Entry ``k`` is ``DECODE_FACTORS[codec] - 1`` when cohort ``k`` is
        demoted and 0 while it is still raw, so ``sizes * surcharge``
        summed under a candidate mask is the rows-equivalent extra work
        the cost model charges for answering those cohorts from their
        compressed blocks.  ``None`` when ``column`` is never compressed.
        The result is a read-only view; it must not outlive the next
        demotion.
        """
        if column not in self._surcharge:
            return None
        cohorts = len(self.table.cohorts)
        view = self._surcharge_upto(column, cohorts)[:cohorts]
        view.flags.writeable = False
        return view

    # -- accounting -----------------------------------------------------

    def compressed_nbytes(self, column: str | None = None) -> int:
        """Encoded footprint of the demoted blocks (one or all columns)."""
        total = 0
        for blocks in self._blocks.values():
            if column is None:
                total += sum(b.nbytes for b in blocks.values())
            elif column in blocks:
                total += blocks[column].nbytes
        return total

    def raw_nbytes_covered(self, column: str | None = None) -> int:
        """What the demoted rows would occupy uncompressed."""
        width = len(self._columns) if column is None else 1
        return self.demoted_rows * _INT64_BYTES * width

    def byte_report(self) -> dict:
        """Byte accounting for dashboards and the bench suite."""
        compressed = self.compressed_nbytes()
        raw = self.raw_nbytes_covered()
        rows = self.demoted_rows
        return {
            "demoted_cohorts": self.demoted_count,
            "demoted_rows": rows,
            "compressed_nbytes": compressed,
            "raw_nbytes_covered": raw,
            "bytes_per_row": (compressed / (rows * len(self._columns)))
            if rows
            else 0.0,
            "ratio": (compressed / raw) if raw else 1.0,
        }

    def stats(self) -> dict:
        """Operational counters (access accounting included)."""
        codec_counts: dict[str, int] = {}
        for blocks in self._blocks.values():
            for block in blocks.values():
                codec_counts[block.codec_name] = (
                    codec_counts.get(block.codec_name, 0) + 1
                )
        report = self.byte_report()
        report.update(
            {
                "columns": list(self._columns),
                "min_age": self.min_age,
                "codecs": codec_counts,
                "blocks_pruned": self._pruned_blocks,
                "blocks_direct": self._direct_blocks,
                "blocks_decoded": self._decoded_blocks,
            }
        )
        return report

    # -- persistence ------------------------------------------------------

    def state(self) -> list[dict]:
        """Serializable block records for checkpointing (io format v3 on).

        One record per (cohort, column) block: scalars suitable for a
        JSON header plus the numpy payload arrays, keyed by field name.
        """
        records = []
        for ordinal in sorted(self._blocks):
            cohort = self.table.cohorts[ordinal]
            for column in self._columns:
                block = self._blocks[ordinal][column]
                vmin, vmax = self._bounds[ordinal][column]
                scalars = {
                    "ordinal": ordinal,
                    "column": column,
                    "codec": block.codec_name,
                    "n_values": block.n_values,
                    "nbytes": block.nbytes,
                    "start": cohort.start,
                    "stop": cohort.stop,
                    "vmin": vmin,
                    "vmax": vmax,
                }
                arrays = {}
                for field, value in block.payload.items():
                    if isinstance(value, np.ndarray):
                        arrays[field] = value
                    else:
                        scalars[f"param_{field}"] = int(value)
                records.append({"scalars": scalars, "arrays": arrays})
        return records

    def load_state(self, records) -> None:
        """Rebuild demoted blocks from :meth:`state` records; a record
        that does not match its cohort of the table raises StorageError."""
        log = self.table.cohorts
        for record in records:
            scalars = record["scalars"]
            ordinal = int(scalars["ordinal"])
            column = scalars["column"]
            saved = tuple(int(scalars[k]) for k in ("start", "stop", "n_values"))
            cohort = log[ordinal] if 0 <= ordinal < len(log) else None
            if cohort is None or saved != (cohort.start, cohort.stop, cohort.size):
                raise StorageError(
                    f"compressed block (start, stop, n_values) {saved} does not "
                    f"match cohort {ordinal} of the table: {cohort or 'none'}"
                )
            self._install(
                ordinal,
                {column: record_block(record)},
                {column: (int(scalars["vmin"]), int(scalars["vmax"]))},
            )
        self._generation += 1

    def __repr__(self) -> str:
        return (
            f"CompressedCohortStore(columns={list(self._columns)}, "
            f"demoted={self.demoted_count}, min_age={self.min_age})"
        )
