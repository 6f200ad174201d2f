"""Result cache with amnesia-aware invalidation.

The serving layer's answer cache must respect the repo's core
invariant: a cached answer may be returned **iff it is bit-identical
to a fresh execution**.  Forgetting is what makes that hard — any
forget event can silently move matching rows from the amnesiac result
(R_F) to the missed side (M_F).  Instead of flushing everything on
every event, each entry records two things at store time:

* the **cohort set** its matches (active and missed) live in — a
  forget event delivers the newly flipped positions through the
  :class:`~repro.storage.table.TableObserver` protocol, and only
  entries whose cohort sets intersect the flipped positions' cohorts
  are invalidated (any row whose activity changed is in the entry's
  match set, hence its cohort is recorded — so the intersection test
  is sound, merely conservative at cohort granularity);
* an **insert guard**: the predicate's per-column bounds, when it has
  them.  A new batch whose values provably fall outside some bound
  cannot join the match set, so the entry survives the epoch advance;
  entries without extractable bounds (``TruePredicate``, ``OR``,
  ``NOT``) are dropped on any insert.

Everything else — access-count replay on hits, drop/recreate purges —
lives in the service (:mod:`repro.serving.server`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .._util.errors import QueryError
from ..query.planner import _and_bounds, _range_bounds
from ..query.predicates import Predicate

__all__ = ["guard_bounds", "ResultEntry", "ResultCache"]


def guard_bounds(predicate: Predicate) -> tuple | None:
    """Per-column bounds that can prove an inserted batch irrelevant.

    ``((column, low, high), ...)`` such that a row satisfying the
    predicate must satisfy **every** conjunct — so a batch entirely
    outside any one conjunct cannot change the result.  ``None`` when
    the predicate has no such decomposition (conservative: every
    insert invalidates).
    """
    bounds = _range_bounds(predicate)
    if bounds is not None:
        return (bounds,)
    merged = _and_bounds(predicate)
    if merged is not None:
        return tuple(merged)
    return None


@dataclass
class ResultEntry:
    """One cached answer plus the metadata proving it still fresh."""

    payload: dict
    #: Active match positions at store time — replayed through
    #: ``table.record_access`` on every hit, so policy-visible state
    #: evolves exactly as a fresh execution would evolve it.
    active_positions: np.ndarray = field(repr=False)
    #: Cohort ordinals of every match (active and missed).
    cohorts: frozenset = field(repr=False)
    #: Insert guard (see :func:`guard_bounds`); ``None`` = no guard.
    guard: tuple | None = None


class _Watcher:
    """Table observer funnelling events into the cache for one source."""

    def __init__(self, cache: "ResultCache", source: str):
        self._cache = cache
        self._source = source

    def on_insert(self, table, positions: np.ndarray) -> None:
        self._cache._on_insert(self._source, table, positions)

    def on_forget(self, table, positions: np.ndarray) -> None:
        self._cache._on_forget(self._source, table, positions)


class ResultCache:
    """Cohort-tracked answer cache over catalog tables.

    ``max_entries`` bounds the total entry count LRU-style.  All
    methods are thread-safe; the observer callbacks additionally run
    under the table's source lock (inserts and forgets are serialized
    there), so an invalidation can never race the store that made the
    entry — the service stores entries under the same lock.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise QueryError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        #: (source, key) -> ResultEntry
        self._entries: OrderedDict[tuple, ResultEntry] = OrderedDict()
        self._watched: dict[str, _Watcher] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- wiring ---------------------------------------------------------

    def watch(self, source: str, table) -> None:
        """Subscribe to ``table``'s events as ``source`` (idempotent)."""
        with self._lock:
            if source in self._watched:
                return
            watcher = _Watcher(self, source)
            self._watched[source] = watcher
        # No backfill: an empty cache has nothing to invalidate, and a
        # backfilled on_insert would replay already-forgotten rows.
        table.add_observer(watcher, backfill=False)

    def unwatch(self, source: str, table=None) -> None:
        """Stop watching ``source`` and purge its entries."""
        with self._lock:
            watcher = self._watched.pop(source, None)
        if watcher is not None and table is not None:
            table.remove_observer(watcher)
        self.invalidate_source(source)

    # -- cache protocol -------------------------------------------------

    def lookup(self, source: str, key: tuple) -> ResultEntry | None:
        """The live entry for ``(source, key)``, or ``None``."""
        with self._lock:
            entry = self._entries.get((source, key))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end((source, key))
            self.hits += 1
            return entry

    def store(
        self,
        source: str,
        key: tuple,
        payload: dict,
        active_positions: np.ndarray,
        missed_positions: np.ndarray,
        table,
        guard: tuple | None,
    ) -> ResultEntry:
        """Cache ``payload``, recording the cohorts its matches touch."""
        # One bincount marks every cohort a match falls in (no hashing).
        matches = np.concatenate([active_positions, missed_positions])
        hits = np.bincount(
            table.cohorts.index_of(matches), minlength=len(table.cohorts)
        )
        cohorts = frozenset(np.flatnonzero(hits).tolist())
        entry = ResultEntry(
            payload=dict(payload),
            active_positions=np.array(active_positions, dtype=np.int64),
            cohorts=cohorts,
            guard=guard,
        )
        with self._lock:
            self._entries[(source, key)] = entry
            self._entries.move_to_end((source, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def invalidate_source(self, source: str) -> int:
        """Drop every entry for ``source`` (dropped or recreated)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == source]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    # -- observer plumbing ---------------------------------------------

    def _on_insert(self, source: str, table, positions: np.ndarray) -> None:
        """Epoch advance: keep only entries whose guard excludes it."""
        if positions.size == 0:
            return
        extrema: dict[str, tuple[int, int]] = {}

        def excluded(column: str, low: int, high: int) -> bool:
            if column not in extrema:
                values = table.values(column)[positions]
                extrema[column] = (int(values.min()), int(values.max()))
            lo_v, hi_v = extrema[column]
            return hi_v < low or lo_v >= high

        with self._lock:
            stale = []
            for key, entry in self._entries.items():
                if key[0] != source:
                    continue
                if entry.guard is not None and any(
                    excluded(column, low, high)
                    for column, low, high in entry.guard
                ):
                    continue  # provably untouched by the new batch
                stale.append(key)
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)

    def _on_forget(self, source: str, table, positions: np.ndarray) -> None:
        """Forget event: invalidate exactly the intersecting cohort sets."""
        if positions.size == 0:
            return
        # Forgotten positions arrive ascending, so their cohort ordinals
        # do too: a neighbour mask keeps each one once.
        ordinals = table.cohorts.index_of(positions)
        touched = frozenset(
            ordinals[np.r_[True, ordinals[1:] != ordinals[:-1]]].tolist()
        )
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if key[0] == source and entry.cohorts & touched
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries_for(self, source: str) -> int:
        """Live entry count for one source (tests use this)."""
        with self._lock:
            return sum(1 for key in self._entries if key[0] == source)

    def stats(self) -> dict:
        """Counters for dashboards and tests."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
