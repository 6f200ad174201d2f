"""One benchmark for the amnesiac engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_forget --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ingest_forget``     -- the section 2.3 epoch loop on an 8-shard store
* ``history_analytics`` -- read-only analytics over a compressed history
* ``serve_mixed``       -- the HTTP service under a Zipf-skewed mix

Each workload is a single-process closed loop: one caller waits for
every reply.  All inputs — values, windows, specs, request dicts — are
generated from ``--seed`` before the clock starts, and the amount of
work is fixed by ``--seed`` and ``--seconds`` (each workload carries an
ops-per-second rate calibrated on a 2-core x86 VM), so every run and
every commit executes the same ops against the same states.

Each run builds the initial state ``SETUP_REPEATS`` times and reports
the median as ``setup_s``, runs the timed ops on the last build, then
replays the same ops on a trust-nothing twin (full scans, raw columns,
one worker, no caches) and compares per-op results and the final state;
any mismatch makes the run exit non-zero.

With ``--trace 0`` every time (builds and ops) is scaled to the host's
reference speed by a fixed kernel run between ops (``common.py``
explains why), so two runs on a host whose speed drifts still agree.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (engine entry points wrapped from
``layers.py``), including the tracing overhead against an untraced
pass of the same ops.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_forget", "history_analytics", "serve_mixed")
SETUP_REPEATS = 5


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    return json.loads(path.read_text())


def _import_engine() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"engine sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _workload(name: str, seed: int, seconds: int, workdir: str):
    import importlib

    return importlib.import_module(name).Workload(seed, seconds, workdir)


def _check(wl, label: str, results: list, final, twin: tuple) -> list[str]:
    """Compare one pass's results digest and final state with the twin's."""
    from common import digest, first_mismatch

    twin_results, twin_final = twin
    problems = []
    mine = wl.comparable(results)
    if digest(mine) != digest(twin_results):
        problems.append(f"{label}: results differ from the twin ({first_mismatch(mine, twin_results)})")
    if digest(final) != digest(twin_final):
        problems.append(f"{label}: final state differs from the twin")
    return problems


def _shared_end_to_end(wl, log, state, setup_times, rss) -> dict:
    from common import p50_ms, tail_ms

    reads = log.latencies.get("read", [])
    tail, pct, beyond = tail_ms(reads)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} builds"),
        "ops_per_s": (
            log.ops_per_s(),
            "1/s",
            f"{log.attempted} ops in {log.busy:.3f} s at reference speed, {log.wall:.3f} s wall; "
            f"kernel median {1e3 * statistics.median(log.kernel):.3f} ms",
        ),
        "read_p50_ms": (p50_ms(reads), "ms", f"n={len(reads)}"),
        "read_tail_ms": (tail, "ms", f"p{pct:g}, {beyond} samples beyond, n={len(reads)}"),
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (log.failed / max(log.attempted, 1), "ratio", dict(log.failures) or "no failures"),
    }
    metrics.update(wl.end_to_end(state, log))
    return metrics


def _recover(wl, state, problems: list) -> float | None:
    """Seconds the workload's end-of-run recovery took (None: it has none)."""
    recover = wl.recover_check(state)
    if recover is None:
        return None
    ok, seconds, message = recover
    if not ok:
        problems.append(message)
    return seconds


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    _import_engine()
    from common import calibrated, digest, peak_rss_mb, replay, run_ops

    manifest = _load_manifest()
    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = work_root / f"{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        wl = _workload(name, seed, seconds, str(workdir))
        problems: list[str] = []
        report: dict = {}
        if not trace:
            setup_times = []
            state = None
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    wl.close(state)
                    state = None
                    gc.collect()  # one build alive at a time: peak RSS is one state
                state, seconds_taken = calibrated(wl.build)
                setup_times.append(seconds_taken)
            log = run_ops(wl.ops, wl.executor(state), wl.op_class, calibrate=True)
            rss = peak_rss_mb()
            final = wl.final_state(state)
            report = _shared_end_to_end(wl, log, state, setup_times, rss)
            recover_s = _recover(wl, state, problems)
            if recover_s is not None:
                report["recover_s"] = (recover_s, "s")
            wl.close(state)
            logs = [("timed pass", log, final)]
        else:
            import layers
            from tracer import Tracer

            state = wl.build()
            log_u = run_ops(wl.ops, wl.executor(state), wl.op_class)
            final_u = wl.final_state(state)
            wl.close(state)
            state = None
            gc.collect()

            state = wl.build()
            tracer = Tracer()
            layers.install(tracer)
            try:
                before = wl.snapshot(state)
                tracer.armed = True
                log = run_ops(wl.ops, wl.executor(state), wl.op_class, tracer=tracer)
                tracer.armed = False
            finally:
                tracer.uninstall()
            final = wl.final_state(state)
            attributed = tracer.attribute()
            extra = wl.layer_extra(state, before, log)
            extra.update(wl.probe(state))
            recover_s = _recover(wl, state, problems)
            if recover_s is not None:
                extra["storage.io.recover_ms"] = 1e3 * recover_s
            extra["trace.overhead"] = log_u.ops_per_s() / max(log.ops_per_s(), 1e-9)
            units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            report = {
                k: (v, units.get(k, ""))
                for k, v in layers.metrics(tracer, attributed, extra, wl.op_tags, log.wall).items()
            }
            tracer.dump(work_root / f"spans-{name}-seed{seed}.npz")
            wl.close(state)
            logs = [("untraced pass", log_u, final_u), ("traced pass", log, final)]

        twin_state = wl.build_twin()
        twin = (wl.comparable(replay(wl.ops, wl.twin_executor(twin_state))), wl.final_state(twin_state))
        wl.close(twin_state)
        for label, pass_log, pass_final in logs:
            problems += _check(wl, label, pass_log.results, pass_final, twin)

        section = "per_layer" if trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in manifest[section]}
        missing = sorted(set(wanted) - set(report))
        if missing:
            _fail(f"workload {name} does not produce {missing}")
        width = max(len(k) for k in report)
        print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)}")
        for key, entry in report.items():
            value, unit, *note = entry
            suffix = f"  ({note[0]})" if note else ""
            print(f"{key:<{width}}  {value:>14.6g} {unit}{suffix}")
        print(f"results digest {digest(twin[0])} (trust-nothing twin)")
        for problem in problems:
            print(f"MISMATCH {problem}")
        main_log = logs[-1][1]
        result = {
            "correct": not problems,
            "attempted": main_log.attempted,
            "failed": main_log.failed,
            "metrics": {
                key: {"value": float(report[key][0]), "unit": unit}
                for key, unit in wanted.items()
            },
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in a fresh interpreter; one summary at the end."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        summary[name] = json.loads(lines[-1]) if lines else None
    result = {
        "correct": all(s is not None and s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values() if s),
        "failed": sum(s["failed"] for s in summary.values() if s),
        "metrics": {
            f"{name}.{key}": entry
            for name, s in summary.items() if s
            for key, entry in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"perfbench: finished in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
