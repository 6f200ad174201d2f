"""Benches A1/A2/A2b — ablations over the paper's under-specified knobs."""

from __future__ import annotations

from repro.experiments import (
    run_ante_bias_ablation,
    run_area_ablation,
    run_rot_ablation,
)

from conftest import BENCH_SEED


def test_area_hole_count_ablation(once):
    """A1: new molds start with probability 1/(K+1), so small K yields
    speckle and large K grows few contiguous holes."""
    result = once(run_area_ablation, seed=BENCH_SEED, queries_per_epoch=100)
    by_k = result.data["by_k"]

    # Hole-boundary count shrinks as K grows.
    assert by_k[1]["transitions"] > by_k[16]["transitions"]
    assert by_k[4]["transitions"] > by_k[64]["transitions"]
    # At K=64 nearly all forgetting accretes onto long-lived areas.
    assert by_k[64]["transitions"] < 0.1 * by_k[1]["transitions"]

    # Precision is insensitive to K on uniform data (value-blind).
    finals = [v["final_E"] for v in by_k.values()]
    assert max(finals) - min(finals) < 0.08


def test_rot_knob_ablation(once):
    """A2: the high-water mark prevents anterograde drift; the
    frequency shield pays off on skewed data."""
    result = once(run_rot_ablation, seed=BENCH_SEED, queries_per_epoch=300)
    knobs = result.data["by_knobs"]

    # Without the water mark, fresh unqueried tuples are eaten
    # (anterograde behaviour the paper warns about).
    assert knobs["hwm=0,exp=1.0"]["newest_cohort_active"] < 0.5
    # With it, the fresh cohort survives its protected round.
    assert knobs["hwm=1,exp=1.0"]["newest_cohort_active"] == 1.0

    # The frequency shield raises precision on zipfian data ...
    assert (
        knobs["hwm=1,exp=1.0"]["final_E"]
        > knobs["hwm=1,exp=0.0"]["final_E"] + 0.1
    )
    # ... and more shield helps more (up to saturation).
    assert (
        knobs["hwm=1,exp=2.0"]["final_E"]
        >= knobs["hwm=1,exp=1.0"]["final_E"] - 0.02
    )


def test_ante_bias_ablation(once):
    """A2b: the recency bias trades initial-cohort retention against
    the depth of the update black hole, monotonically."""
    result = once(run_ante_bias_ablation, seed=BENCH_SEED)
    by_bias = result.data["by_bias"]
    biases = sorted(by_bias)

    initial = [by_bias[b]["initial_cohort"] for b in biases]
    tail = [by_bias[b]["newest_cohort"] for b in biases]
    # More bias -> more of the initial database survives ...
    assert all(a < b for a, b in zip(initial, initial[1:]))
    # ... at the cost of fresher updates.
    assert all(a > b for a, b in zip(tail, tail[1:]))
    # AnterogradeAmnesia's default (bias 6) keeps "most" of cohort 0.
    assert by_bias[6.0]["initial_cohort"] > 0.5
    # And the black hole is always the darkest region.
    for b in biases:
        facts = by_bias[b]
        assert facts["black_hole"] < facts["initial_cohort"]
        assert facts["black_hole"] < facts["newest_cohort"]
