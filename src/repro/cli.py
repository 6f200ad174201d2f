"""Command-line experiment harness.

Usage::

    python -m repro list                 # show the experiment index
    python -m repro run F1               # reproduce one experiment
    python -m repro run all              # reproduce everything
    python -m repro run F3 --seed 7      # override the root seed
    python -m repro run F3 --plan scan   # force the query access path
    python -m repro run F3 --stats hist  # histogram-backed estimates
    python -m repro run F3 --compress on # compressed cold cohorts
    python -m repro run F3 --checkpoint /tmp/ckpt.npz   # per-epoch saves
    python -m repro run F3 --faults "checkpoint.tmp:crash@2"  # injection
    python -m repro recover /tmp/ckpt.npz               # verify/restore

Every experiment prints the same rows/series the paper's figures and
tables report, rendered as ASCII heat maps, line charts and tables.
Exit codes: 0 success, 1 recovery failure, 2 bad usage, 3 an injected
crash fault fired (the run stopped exactly where the plan said).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

from ._util.errors import ConfigError, QueryError, StorageError
from .core.config import (
    COMPRESS_MODES,
    REBALANCE_POLICIES,
    STATS_MODES,
    SimulationConfig,
)
from .experiments import EXPERIMENTS
from .faults import FaultInjected, armed, parse_fault_plan
from .query.planner import PLAN_MODES

__all__ = ["main", "build_parser"]

_DESCRIPTIONS = {
    "F1": "Figure 1 — database amnesia map after 10 update batches",
    "F2": "Figure 2 — database rot map per data distribution",
    "F3": "Figure 3 — range query precision over the timeline",
    "T1": "§4.2 — low vs high update volatility",
    "T2": "§4.3 — aggregate (AVG) precision over a longer run",
    "T3": "§4.2 — selectivity factor sweep",
    "A1": "ablation — area policy hole count K",
    "A2": "ablation — rot high-water mark / frequency shield",
    "A2b": "ablation — anterograde recency bias",
    "A3": "§4.4 — pair-preserving amnesia vs baselines",
    "A4": "§4.4 — distribution-aligned amnesia drift",
    "C1": "§1 — storage economics of forgetting (Glacier model)",
    "C2": "§4.4 — compression postpones forgetting",
    "I1": "§1 — stop-indexing and summary disposition mechanics",
    "X1": "extension — human-forgetting-curve (Ebbinghaus) amnesia",
    "X2": "extension — adaptive partition budgets",
    "X3": "extension — referential integrity (restrict/cascade)",
    "X4": "extension — histogram micro-model summaries",
    "X5": "extension — cross-table union/join over forgetting streams",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-amnesia",
        description=(
            "Reproduction harness for 'A Database System with Amnesia' "
            "(CIDR 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the root seed"
    )
    run.add_argument(
        "--plan",
        choices=PLAN_MODES,
        default=None,
        help=(
            "query access-path mode for every simulator the experiment "
            "builds (default: auto; 'cost' picks paths from cardinality "
            "estimates; results are identical across modes)"
        ),
    )
    run.add_argument(
        "--stats",
        choices=STATS_MODES,
        default=None,
        help=(
            "cardinality-statistics source for every planner the "
            "experiment builds (default: uniform = per-cohort "
            "uniformity; 'hist' maintains per-column value histograms "
            "so estimates track skewed streams and adaptive shard "
            "splits cut at the traffic-weighted median; results are "
            "identical under either source)"
        ),
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard fan-out width for partitioned stores the experiment "
            "builds (default: 1 = sequential; results are identical at "
            "any width)"
        ),
    )
    run.add_argument(
        "--rebalance",
        choices=REBALANCE_POLICIES,
        default=None,
        help=(
            "traffic signal for partition rebalancing (default: hits; "
            "'rows' weighs queries by matched rows, 'adaptive' also "
            "splits hot shard boundaries and merges cold ones)"
        ),
    )
    run.add_argument(
        "--query",
        default=None,
        metavar="union:...|join:...",
        help=(
            "cross-table query spec for catalog-backed experiments "
            "(X5): 'union:s1,s2' concatenates per-sensor streams, "
            "'join:s1,s2:on=value' (or on=epoch) equi-joins them; "
            "optional low=/high= bound the scans "
            f"(default: {SimulationConfig.cross_query!r})"
        ),
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        dest="batch_size",
        help=(
            "row-batch size for the streaming vectorized execution "
            "layer (batch iterators and streamed aggregates; default: "
            f"{SimulationConfig.exec_batch}; results are identical at any "
            "size — only the peak working set changes)"
        ),
    )
    run.add_argument(
        "--compress",
        choices=COMPRESS_MODES,
        default=None,
        help=(
            "compressed-execution mode for every store the experiment "
            "builds (default: off; 'on' demotes cold cohorts into "
            "best-codec compressed blocks and evaluates range "
            "predicates directly on the encoded form; results are "
            "identical under either mode)"
        ),
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "checkpoint the simulator's table to PATH (atomically, "
            "with .prev rotation) after the initial load and after "
            "every epoch; 'repro recover PATH' restores the newest "
            "fully-valid snapshot"
        ),
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "arm deterministic fault injection for the run (falls back "
            "to the REPRO_FAULTS env var): semicolon-separated "
            "'point:crash[@N]' / 'point:delay=S' / 'point:flaky=P' "
            "entries plus an optional 'seed=N'; e.g. "
            "'checkpoint.tmp:crash@2'.  An injected crash exits with "
            "code 3"
        ),
    )

    recover = sub.add_parser(
        "recover",
        help="restore (and verify) the newest valid checkpoint at PATH",
    )
    recover.add_argument(
        "path",
        help=(
            "checkpoint path as given to --checkpoint / save_store; "
            "PATH.prev is tried when PATH itself is torn or corrupt"
        ),
    )
    recover.add_argument(
        "--policy",
        default=None,
        metavar="NAME",
        help=(
            "amnesia policy to rebuild for database/sharded/catalog "
            "checkpoints (policies are rebuilt, not serialized); plain "
            "table checkpoints need none"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="serve a demo catalog over HTTP (multi-tenant, cached)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to listen on (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: loopback)"
    )
    serve.add_argument(
        "--plan",
        choices=PLAN_MODES,
        default="cost",
        help="access-path mode for the served catalog (default: cost)",
    )
    serve.add_argument(
        "--stats",
        choices=STATS_MODES,
        default="hist",
        help="statistics source for the served catalog (default: hist)",
    )
    serve.add_argument(
        "--rows",
        type=int,
        default=100_000,
        help="rows preloaded into the demo table (default: 100000)",
    )
    serve.add_argument(
        "--seed", type=int, default=20170108, help="demo-data seed"
    )
    serve.add_argument(
        "--lifetime",
        type=float,
        default=0.0,
        help=(
            "seconds to serve before shutting down cleanly "
            "(0 = serve until interrupted; smoke tests use a bound)"
        ),
    )
    return parser


def _run_serve(args, out) -> int:
    """Stand the demo catalog up behind the HTTP service.

    Two tenants over one shared table: ``alice`` sees everything,
    ``bob`` is clamped to the lower half of the value domain — the
    smallest setup that exercises sessions, scoping and both caches.
    """
    import numpy as np

    from .serving import QueryService, serve_in_thread
    from .storage import Catalog

    if args.rows < 1:
        print(f"--rows must be >= 1, got {args.rows}", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"--port must be in [0, 65535], got {args.port}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.lifetime) and args.lifetime >= 0):
        print(
            f"--lifetime must be a finite number >= 0, got {args.lifetime}",
            file=sys.stderr,
        )
        return 2
    rng = np.random.default_rng(args.seed)
    catalog = Catalog(plan=args.plan, stats=args.stats)
    table = catalog.create_table("obs", ["value", "sensor"])
    half = 50_000
    table.insert_batch(
        0,
        {
            "value": rng.integers(0, 2 * half, size=args.rows),
            "sensor": rng.integers(0, 16, size=args.rows),
        },
    )
    service = QueryService(catalog)
    service.register_tenant("alice", tables={"obs"})
    service.register_tenant(
        "bob", tables={"obs"}, value_bounds={"value": (0, half)}
    )
    server, thread = serve_in_thread(service, args.host, args.port)
    host, port = server.server_address
    print(
        f"serving catalog on http://{host}:{port} "
        f"(plan={args.plan}, stats={args.stats}, rows={args.rows}); "
        "tenants: alice (full), bob (value < 50000)",
        file=out,
    )
    try:
        if args.lifetime > 0:
            thread.join(args.lifetime)
        else:  # pragma: no cover - interactive only
            while thread.is_alive():
                thread.join(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        service.close()
        catalog.close()
    print("server stopped cleanly", file=out)
    return 0


def _run_recover(args, out) -> int:
    """Restore the newest valid checkpoint and report what was found."""
    from .storage import Table
    from .storage.io import recover_store

    policy_factory = None
    if args.policy is not None:
        from .amnesia import make_policy

        try:
            make_policy(args.policy)  # validate the name before any I/O
        except ConfigError as error:
            print(f"--policy: {error}", file=sys.stderr)
            return 2
        policy_factory = lambda: make_policy(args.policy)  # noqa: E731
    try:
        store, used = recover_store(args.path, policy_factory)
    except StorageError as error:
        print(f"recover failed: {error}", file=sys.stderr)
        return 1
    if isinstance(store, Table) or hasattr(store, "active_count"):
        detail = f"{store.active_count} active / {store.total_rows} rows"
    else:  # a Catalog: per-table counts live one level down
        detail = f"{len(store.names())} tables"
    print(
        f"recovered {type(store).__name__} from {used} ({detail})",
        file=out,
    )
    return 0


#: ``run`` flags that override a field of the run's base
#: :class:`SimulationConfig`, as (flag, field) pairs.
_RUN_FLAGS = (
    ("--plan", "plan"),
    ("--stats", "stats"),
    ("--workers", "workers"),
    ("--rebalance", "rebalance"),
    ("--query", "cross_query"),
    ("--batch-size", "exec_batch"),
    ("--compress", "compress"),
    ("--checkpoint", "checkpoint"),
)


def _run_one(
    experiment_id: str, seed: int | None, base: SimulationConfig, out
) -> None:
    result = EXPERIMENTS[experiment_id](seed=seed, base=base)
    print(result.render(), file=out)
    print(file=out)


def main(argv=None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(
                f"{experiment_id:4s} {_DESCRIPTIONS.get(experiment_id, '')}",
                file=out,
            )
        return 0

    if args.command == "serve":
        return _run_serve(args, out)

    if args.command == "recover":
        return _run_recover(args, out)

    # One frozen run configuration, validated flag by flag so a bad
    # value exits 2 naming the flag before anything runs.
    base = SimulationConfig()
    for flag, field in _RUN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        try:
            base = base.with_(**{field: value})
        except (ConfigError, QueryError) as error:
            print(f"{flag}: {error}", file=sys.stderr)
            return 2
    faults_spec = args.faults
    if faults_spec is None:
        faults_spec = os.environ.get("REPRO_FAULTS") or None
    fault_plan = None
    if faults_spec is not None:
        try:
            fault_plan = parse_fault_plan(faults_spec)
        except ConfigError as error:
            print(f"--faults: {error}", file=sys.stderr)
            return 2
    # The fault plan is armed only for this run: armed() restores the
    # previously armed plan however the run ends.
    try:
        with armed(fault_plan) if fault_plan is not None else nullcontext():
            target = args.experiment.upper()
            if target == "ALL":
                for experiment_id in EXPERIMENTS:
                    _run_one(experiment_id, args.seed, base, out)
                return 0
            by_upper = {
                experiment_id.upper(): experiment_id
                for experiment_id in EXPERIMENTS
            }
            if target not in by_upper:
                print(
                    f"unknown experiment {args.experiment!r}; "
                    f"choose from {', '.join(EXPERIMENTS)} or 'all'",
                    file=sys.stderr,
                )
                return 2
            _run_one(by_upper[target], args.seed, base, out)
            return 0
    except QueryError as error:
        # Grammar errors are caught before anything runs; binding
        # errors (e.g. --query naming a table the experiment does not
        # create) surface here, once a catalog tries to resolve the
        # spec — same clean diagnostic, no traceback.  Scoped to runs
        # that supplied --query: an internal QueryError from an
        # unrelated experiment must keep its stack trace.
        if args.query is None:
            raise
        print(f"query error: {error}", file=sys.stderr)
        return 2
    except FaultInjected as fault:
        # The armed plan stopped the run exactly where it said it
        # would — a simulated kill, not an error in the experiment.
        # Distinct exit code so crash-recover harnesses can tell
        # "crashed as planned" (3) from bad usage (2) or failure (1).
        print(f"crash fault injected: {fault}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
