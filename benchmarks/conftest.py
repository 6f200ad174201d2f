"""Shared benchmark configuration.

Every benchmark runs its experiment exactly once per measurement
(``rounds=1``) because experiment runtimes are seconds, not
microseconds, and the interesting output is the *shape assertion*
against the paper, not nanosecond variance.

Benchmarks use reduced-but-meaningful sizes (fewer queries per epoch
than the paper's 1000) so the full suite stays in the minutes range;
the experiment ids match ``repro.experiments.EXPERIMENTS``.
"""

from __future__ import annotations

import pytest

#: Root seed for every benchmark run — results are deterministic.
BENCH_SEED = 20170108


@pytest.fixture
def once(benchmark):
    """Run ``fn(*args, **kwargs)`` once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
