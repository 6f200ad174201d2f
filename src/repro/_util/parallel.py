"""Deterministic thread-pool fan-out over independent work items.

The sharded store (and the catalog's multi-table batches) run per-shard
planner+executor pipelines that are mutually independent: each touches
one table and its own planner state.  :class:`FanOutPool` runs such
pipelines on a reusable :class:`~concurrent.futures.ThreadPoolExecutor`
and hands results back **in item order**, so callers merge exactly as
they would have sequentially — completion order never leaks into
results.

Two design points keep the parallel path honest:

* Items are *striped* into at most ``workers`` group tasks (item ``i``
  goes to group ``i % groups``) instead of one task per item, so
  dispatch overhead is paid per group, not per shard, and a skewed
  workload still spreads hot items across groups.
* ``workers <= 1`` (or a single item) bypasses the pool entirely and
  runs inline — the sequential path stays the zero-thread baseline the
  equivalence harness compares against.  Callers pass only the items
  that have work: the sharded store's reads hand over the shards a
  range covers and run pruned ones inline, so a one-shard read never
  leaves the caller thread.

Numpy releases the GIL inside its ufunc loops, so shard scans genuinely
overlap on multi-core hosts; on a single core the striping keeps the
degradation to dispatch overhead only.

:class:`EpochGate` is the write-side companion: a write-preferring
read/write gate whose published epoch counter is the snapshot handoff
for concurrent ingest — appliers drain per-shard queues under the
exclusive hold and the epoch advance publishes the batch atomically,
so readers never observe a half-applied batch.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["EpochGate", "FanOutPool"]


class EpochGate:
    """Write-preferring read/write gate with a published epoch counter.

    The concurrency seam of the concurrent ingest path: readers hold
    the gate *shared* for the duration of one query, a writer holds it
    *exclusive* for the duration of one batch application and calls
    :meth:`publish` before releasing — so the epoch advance is the
    barrier that makes a batch visible atomically.  A reader that
    observes published epoch N can never see a half-applied batch
    N + 1: the batch's per-shard inserts all happen between the
    writer's acquire and its release.

    Write preference (readers queue behind a *waiting* writer) keeps a
    steady query stream from starving ingest.  The gate is not
    reentrant — a reader must not re-enter :meth:`reading` while
    holding it, which the store's read paths never do (shard fan-out
    happens inside one ``reading()`` scope).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._waiting_writers = 0
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Number of batches published so far."""
        with self._cond:
            return self._epoch

    @contextmanager
    def reading(self):
        """Hold the gate shared; blocks while a writer holds or waits."""
        with self._cond:
            while self._writing or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def writing(self):
        """Hold the gate exclusive (one writer, zero readers)."""
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()

    def publish(self, batches: int = 1) -> int:
        """Advance the published epoch; caller must hold :meth:`writing`.

        Returns the new epoch.  Requiring the exclusive hold is what
        ties visibility to the barrier: the epoch moves only while no
        reader can be mid-flight.
        """
        with self._cond:
            if not self._writing:
                raise RuntimeError("publish() requires the writing() hold")
            if batches < 0:
                raise RuntimeError(f"cannot publish {batches} batches")
            self._epoch += int(batches)
            return self._epoch

    def reset(self, epoch: int) -> None:
        """Force the published epoch (checkpoint restore only)."""
        with self._cond:
            self._epoch = int(epoch)

    def __repr__(self) -> str:
        return f"EpochGate(epoch={self.epoch})"


class FanOutPool:
    """A lazily created, reusable pool mapping a function over items.

    The pool is sized on first parallel use and grown if a later call
    asks for more workers; :meth:`close` releases the threads.  The
    object is safe to share between caller threads — submissions from
    concurrent queries interleave on the same executor.  A call with
    ``workers <= 1`` or at most one item submits nothing: it runs on
    the caller thread, so a caller that filters its items down to the
    ones with work decides when the pool is worth a round-trip.
    """

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None
        self._size = 0
        self._pool_lock = threading.Lock()

    def map_ordered(self, fn, items, workers: int) -> list:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are returned in ``items`` order regardless of which
        group task finished first.  Exceptions from any group propagate
        to the caller — but only after **every** group has finished.
        Callers use this as a barrier: a flush that releases its
        exclusive gate hold after map_ordered raises must know no
        applier thread is still mutating a shard behind it.  The first
        failure (in group order) is the one re-raised; crash-style
        ``BaseException`` faults propagate the same way.
        """
        items = list(items)
        n = len(items)
        if workers <= 1 or n <= 1:
            return [fn(item) for item in items]
        groups = min(int(workers), n)
        results: list = [None] * n

        def run_group(k: int) -> None:
            for i in range(k, n, groups):
                results[i] = fn(items[i])

        # Submit under the pool lock: a concurrent close() or a
        # grow-the-pool rebuild from another caller cannot shut this
        # executor down between sizing it and handing it the groups.
        with self._pool_lock:
            pool = self._ensure_locked(groups)
            futures = [pool.submit(run_group, k) for k in range(groups)]
        failure: BaseException | None = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - see docstring
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return results

    def _ensure_locked(self, workers: int) -> ThreadPoolExecutor:
        """Size (or build) the executor; caller holds ``_pool_lock``."""
        if self._pool is None or self._size < workers:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-fanout"
            )
            self._size = workers
        return self._pool

    def close(self) -> None:
        """Shut the executor down (idempotent; pool rebuilds on reuse)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
                self._size = 0

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"FanOutPool(size={self._size})"
