"""Shared benchmark plumbing: the closed-loop op runner and its statistics.

A workload hands :func:`run_ops` a list of pre-generated ops and an
``execute(op)`` callable.  The runner is a closed loop — one caller,
each op waits for the previous reply — and times every op.  Every op
runs under a catch that counts failures by exception type and records
an ``("error", type)`` result, so a failure never aborts the run and
still shows up in the output digest.

A shared host runs this process faster or slower from one minute to the
next (neighbours contend for caches, memory bandwidth and clock), by up
to 2x, and process CPU time slows with it.  So a calibrated pass runs a
fixed :func:`reference_kernel` between ops every ``CALIBRATE_EVERY_S``
and scales each op's wall time by ``REFERENCE_KERNEL_S`` over the
kernel's local time: timed figures read as wall time on a host running
at the reference speed.  The kernel touches no engine code, so a change
to the engine moves the scaled figures exactly as it moves wall time.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Tail percentiles, lowest first: the reported tail is the highest of
#: these that still has at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (90.0, 99.0)
TAIL_MIN_BEYOND = 10

#: Median time of one :func:`reference_kernel` call on a quiet 2-core x86 VM.
REFERENCE_KERNEL_S = 2.2e-3
#: A calibrated pass samples the kernel before the next op once this
#: much time has passed since the last sample (about 4% of the pass).
CALIBRATE_EVERY_S = 0.05
#: Kernel samples on each side of one calibrated call.
CALIBRATE_SAMPLES = 3

_KERNEL_RNG = np.random.default_rng(20_170_108)
_KERNEL_VALUES = _KERNEL_RNG.integers(0, 1 << 40, 8_000)
_KERNEL_PROBES = np.sort(_KERNEL_RNG.integers(0, 1 << 40, 1_000))


def reference_kernel() -> float:
    """Seconds a fixed interpreter-plus-numpy task takes right now."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(2_000):
        key = i & 511
        counts[key] = counts.get(key, 0) + i
    ordered = np.sort(_KERNEL_VALUES)
    inside = (_KERNEL_VALUES > _KERNEL_PROBES[100]) & (_KERNEL_VALUES < _KERNEL_PROBES[800])
    int(_KERNEL_VALUES[inside].sum())
    np.searchsorted(ordered, _KERNEL_PROBES)
    np.unique(_KERNEL_VALUES & 0xFFFF)
    return time.perf_counter() - t0


def speed_factors(samples, marks) -> np.ndarray:
    """Per-op scale from wall time to reference-speed time.

    ``marks[i]`` indexes the last kernel sample taken before op ``i``;
    the op's local kernel time is the median of the two samples before
    it and the two after it.
    """
    samples = np.asarray(samples)
    local = np.array([np.median(samples[max(k - 1, 0) : k + 3]) for k in range(len(samples))])
    return REFERENCE_KERNEL_S / local[np.asarray(marks)]


def calibrated(fn, *args, **kwargs):
    """``(result, seconds at reference speed)`` of one call."""
    before = [reference_kernel() for _ in range(CALIBRATE_SAMPLES)]
    result, seconds = timed(fn, *args, **kwargs)
    after = [reference_kernel() for _ in range(CALIBRATE_SAMPLES)]
    return result, seconds * REFERENCE_KERNEL_S / statistics.median(before + after)


@dataclass
class OpLog:
    """What one closed-loop pass observed."""

    #: op class ("read", "write", ...) -> latencies in seconds
    latencies: dict = field(default_factory=dict)
    #: one digestable result per op, in op order
    results: list = field(default_factory=list)
    #: seconds per op in op order, failed ops included
    durations: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    #: kernel sample times of a calibrated pass (empty otherwise)
    kernel: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def busy(self) -> float:
        """Seconds spent inside ops (at reference speed when calibrated)."""
        return float(sum(self.durations))

    def ops_per_s(self) -> float:
        return self.attempted / self.busy if self.busy > 0 else 0.0


def run_ops(ops, execute, op_class, tracer=None, calibrate: bool = False) -> OpLog:
    """Run ``ops`` in order through ``execute``; time each one.

    ``op_class(op)`` names the latency group an op belongs to.  With a
    ``tracer``, each op's index becomes the request id its spans carry.
    With ``calibrate``, op times are scaled to the reference speed.
    """
    log = OpLog()
    perf = time.perf_counter
    classes = []
    marks = []
    last_sample = -math.inf
    start = perf()
    for i, op in enumerate(ops):
        if calibrate and perf() - last_sample >= CALIBRATE_EVERY_S:
            log.kernel.append(reference_kernel())
            last_sample = perf()
        marks.append(len(log.kernel) - 1)
        if tracer is not None:
            tracer.op_id = i
        t0 = perf()
        try:
            result = execute(op)
            op_kind = op_class(op)
        except Exception as exc:  # noqa: BLE001 - counted, never fatal
            log.failures[type(exc).__name__] += 1
            result, op_kind = ("error", type(exc).__name__), None
        log.durations.append(perf() - t0)
        log.results.append(result)
        classes.append(op_kind)
    log.wall = perf() - start
    if tracer is not None:
        tracer.op_id = -1
    if calibrate:
        log.kernel.append(reference_kernel())
        log.durations = (np.asarray(log.durations) * speed_factors(log.kernel, marks)).tolist()
    for op_kind, seconds in zip(classes, log.durations):
        if op_kind is not None:
            log.latencies.setdefault(op_kind, []).append(seconds)
    return log


def replay(ops, execute) -> list:
    """Run ``ops`` untimed, recording results exactly like :func:`run_ops`."""
    results = []
    for op in ops:
        try:
            results.append(execute(op))
        except Exception as exc:  # noqa: BLE001 - mirrors run_ops
            results.append(("error", type(exc).__name__))
    return results


def mask_fan_out(results) -> list:
    """Range results with the shard fan-out count masked out.

    How many shards a read executed depends on the plan mode (scan
    never prunes), so it cannot be compared with the twin's.
    """
    return [r[:3] + (None,) if r[0] == "range" else r for r in results]


def digest(value) -> str:
    """SHA-256 of a nest of lists/tuples: raw bytes as-is, the rest by ``repr``."""
    h = hashlib.sha256()

    def feed(part) -> None:
        if isinstance(part, (list, tuple)):
            h.update(b"(")
            for item in part:
                feed(item)
                h.update(b",")
            h.update(b")")
        elif isinstance(part, bytes):
            h.update(b"b%d:" % len(part))
            h.update(part)
        else:
            h.update(repr(part).encode())

    feed(value)
    return h.hexdigest()


def first_mismatch(a: list, b: list) -> str:
    """Human-readable pointer to where two result lists diverge."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"op {i}: {x!r} != {y!r}"
    return f"lengths differ: {len(a)} != {len(b)}"


def p50_ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def tail_ms(samples) -> tuple[float, float, int]:
    """(latency ms, percentile, samples beyond it) at the ladder's tail."""
    if not samples:
        return 0.0, 0.0, 0
    n = len(samples)
    chosen = 50.0
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = pct
    value = float(np.percentile(np.asarray(samples), chosen))
    beyond = int(round(n * (100.0 - chosen) / 100.0))
    return 1e3 * value, chosen, beyond


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def precision(pairs) -> float:
    """Mean RF/(RF+MF) over ``(rf, mf)`` pairs (1.0 for empty results)."""
    values = [1.0 if rf + mf == 0 else rf / (rf + mf) for rf, mf in pairs]
    return float(np.mean(values)) if values else 1.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


# -- sharded-store accounting shared by the sharded workloads ------------

BLOCK_COUNTERS = ("blocks_pruned", "blocks_direct", "blocks_decoded")


def shard_dbs(*stores) -> list:
    """Every shard database of the given partitioned stores."""
    return [p.db for store in stores for p in store.partitions]


def block_counts(dbs) -> dict:
    """How compressed probes were answered, summed over ``dbs``."""
    counts = dict.fromkeys(BLOCK_COUNTERS, 0)
    for db in dbs:
        if db.compressed is not None:
            stats = db.compressed.stats()
            for key in counts:
                counts[key] += stats[key]
    return counts


def stored_bytes(dbs) -> tuple[int, int]:
    """(bytes the shards account for, active rows): 8 B per raw value,
    the encoded size for every demoted block."""
    stored = active = 0
    for db in dbs:
        raw_rows = db.total_rows
        if db.compressed is not None:
            raw_rows -= db.compressed.demoted_rows
            stored += db.compressed.compressed_nbytes()
        stored += 8 * raw_rows
        active += db.active_count
    return stored, active


def sharded_layer_extra(dbs, before: dict, results) -> dict:
    """Fan-out width and compressed-block counters over one timed pass."""
    after = block_counts(dbs)
    widths = [r[3] for r in results if r[0] == "range"]
    compressed = [db.compressed for db in dbs if db.compressed is not None]
    demoted = sum(c.demoted_rows for c in compressed)
    encoded = sum(c.compressed_nbytes() for c in compressed)
    return {
        "partitioning.shards_per_read": float(np.mean(widths)) if widths else 0.0,
        **{f"storage.compressed.{k}": float(after[k] - before[k]) for k in after},
        "storage.compressed.bytes_per_row": encoded / max(demoted, 1),
    }
