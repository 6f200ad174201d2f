"""In-memory span tracer that wraps the engine's public entry points.

The engine has no instrumentation of its own, so the traced run patches
the public methods and module functions of each layer *from here* for
the lifetime of one :class:`Tracer` (``install`` / ``uninstall``) and
records one span per call: name, start, end, parent span, thread and
the benchmark op that caused it.  Nothing under ``src/`` changes.

Spans stay in memory and are written out (``dump``) when the run ends.

Self time
---------
A span's *own* time is its duration minus its same-thread child spans
(properly nested, stack discipline) minus the union of the intervals
of its cross-thread children (fan-out appliers on pool threads, the
service handler behind an HTTP round trip).  The covered interval is
handed to the cross-thread children, scaled by
``union / sum(child durations)`` so that two shards running
concurrently share the wall time they overlapped in.  Attributed self
times of a tree therefore sum exactly to its root's duration, and
``wall - sum(layer self times)`` is the time no wrapped layer owns
(the benchmark loop itself plus unwrapped glue): the *unattributed
remainder* the report prints.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

_NO_PARENT = -1


class Tracer:
    """Records spans around wrapped callables while armed."""

    def __init__(self) -> None:
        self.armed = False
        #: Sequence number of the benchmark op in flight (the request id
        #: shared by every span the op causes, on every thread).
        self.op_id = -1
        #: Span adopted as parent by a thread with no open span (the
        #: HTTP handler thread serving the client's in-flight request).
        self.remote_parent = _NO_PARENT
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next = itertools.count()
        self._local = threading.local()
        #: (index, name id, start, end, parent, thread, op id)
        self.records: list[tuple] = []
        #: Executions of wrapped generators (one per stream, many spans).
        self.executions: dict[str, int] = defaultdict(int)
        #: Counts and peaks recorded by ``on_result`` hooks, which may
        #: run on several pool threads at once (hence the lock).
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """The innermost open span on this thread (or the adopted one)."""
        stack = self._stack()
        return stack[-1] if stack else self.remote_parent

    def _run(self, nid: int, fn, args, kwargs, remote: bool):
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        index = next(self._next)
        stack.append(index)
        if remote:
            self.remote_parent = index
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if remote:
                self.remote_parent = _NO_PARENT
            stack.pop()
            self.records.append(
                (index, nid, start, end, parent, threading.get_ident(), self.op_id)
            )

    def _iterate(self, nid: int, gen):
        """Yield from ``gen``, one span per ``next`` (consumer time excluded)."""
        stack = self._stack()
        while True:
            parent = stack[-1] if stack else self.remote_parent
            index = next(self._next)
            stack.append(index)
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = time.perf_counter()
                stack.pop()
                self.records.append(
                    (index, nid, start, end, parent, threading.get_ident(), self.op_id)
                )
            yield item

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Raise the recorded maximum ``name`` to ``value`` (thread-safe)."""
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, name: str, *, on_result=None, remote=False):
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``on_result(result, args)`` may update counters; ``remote``
        makes the span the adopted parent of spans on other threads
        that start while it is open (see :attr:`remote_parent`).
        """
        fn = owner.__dict__[attr]
        nid = self._name_id(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            result = tracer._run(nid, fn, args, kwargs, remote)
            if on_result is not None:
                on_result(result, args)
            return result

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, layer: str, name: str) -> None:
        """Trace a generator method: one span per ``next``, one execution per call."""
        fn = owner.__dict__[attr]
        nid = self._name_id(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.armed:
                return gen
            with tracer._lock:
                tracer.executions[name] += 1
            return tracer._iterate(nid, gen)

        self._patch(owner, attr, traced)

    def adopt_fan_out(self, pool_cls) -> None:
        """Make pool-thread spans children of the span that fanned out."""
        original = pool_cls.__dict__["map_ordered"]
        tracer = self

        @functools.wraps(original)
        def map_ordered(pool, fn, items, workers):
            if not tracer.armed:
                return original(pool, fn, items, workers)
            parent = tracer.current()

            def adopted(item):
                stack = tracer._stack()
                if stack:  # inline (sequential) execution on the caller
                    return fn(item)
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return original(pool, adopted, items, workers)

        self._patch(pool_cls, "map_ordered", map_ordered)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Recorded spans as columns ordered by span index."""
        rec = sorted(self.records)
        return {
            "index": np.array([r[0] for r in rec], dtype=np.int64),
            "name": np.array([r[1] for r in rec], dtype=np.int32),
            "start": np.array([r[2] for r in rec], dtype=np.float64),
            "end": np.array([r[3] for r in rec], dtype=np.float64),
            "parent": np.array([r[4] for r in rec], dtype=np.int64),
            "thread": np.array([r[5] for r in rec], dtype=np.int64),
            "op": np.array([r[6] for r in rec], dtype=np.int64),
        }

    def attribute(self) -> dict:
        """Per-name call counts, inclusive and attributed self time.

        Returns ``{"calls", "inclusive", "self"}`` dicts keyed by span
        name, plus ``"edges"`` — inclusive time per ``(parent name,
        child name)`` — and ``"by_op"``: inclusive time per
        ``(name, op id)``.
        """
        rec = sorted(self.records)
        position = {r[0]: i for i, r in enumerate(rec)}
        n = len(rec)
        duration = [r[3] - r[2] for r in rec]
        own = list(duration)
        cross: dict[int, list[int]] = defaultdict(list)
        roots = []
        for i, r in enumerate(rec):
            p = position.get(r[4])
            if p is None:
                roots.append(i)
            elif rec[p][5] == r[5]:
                own[p] -= duration[i]
            else:
                cross[p].append(i)
        # Scale factors for cross-thread subtrees, propagated top-down.
        children: dict[int, list[int]] = defaultdict(list)
        for i, r in enumerate(rec):
            p = position.get(r[4])
            if p is not None:
                children[p].append(i)
        local_factor = [1.0] * n
        for p, kids in cross.items():
            lo, hi = rec[p][2], rec[p][3]
            intervals = sorted(
                (max(rec[k][2], lo), min(rec[k][3], hi)) for k in kids
            )
            covered = 0.0
            cur_lo, cur_hi = None, None
            for a, b in intervals:
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            own[p] -= covered
            total = sum(duration[k] for k in kids)
            scale = covered / total if total > 0 else 0.0
            for k in kids:
                local_factor[k] = scale
        factor = [1.0] * n
        pending = list(roots)
        while pending:
            i = pending.pop()
            for k in children.get(i, ()):
                factor[k] = factor[i] * local_factor[k]
                pending.append(k)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        edges: dict[tuple[str, str], float] = defaultdict(float)
        by_op: dict[tuple[str, int], float] = defaultdict(float)
        for i, r in enumerate(rec):
            name = self.names[r[1]]
            calls[name] += 1
            inclusive[name] += duration[i]
            self_time[name] += max(own[i], 0.0) * factor[i]
            by_op[(name, r[6])] += duration[i]
            p = position.get(r[4])
            if p is not None:
                edges[(self.names[rec[p][1]], name)] += duration[i]
        for name, count in self.executions.items():
            calls[name] = count
        return {
            "calls": dict(calls),
            "inclusive": dict(inclusive),
            "self": dict(self_time),
            "edges": dict(edges),
            "by_op": dict(by_op),
        }

    def layer_self(self, attributed: dict) -> dict[str, float]:
        """Attributed self seconds summed per layer."""
        layer_of = dict(zip(self.names, self.layers))
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in attributed["self"].items():
            totals[layer_of[name]] += seconds
        return dict(totals)

    def dump(self, path) -> None:
        """Write the spans (columns plus the name table) to ``path`` (.npz)."""
        columns = self.spans()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **columns,
        )
