"""Property-based tests: codecs, sampling, summaries, divergences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.amnesia import weighted_sample_without_replacement
from repro.compression import CODEC_NAMES, make_codec
from repro.query import AggregateFunction
from repro.stats import ExactMoments, js_divergence, kl_divergence
from repro.summaries import SummaryStore
from repro.storage import Table

int_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(0, 300),
    elements=st.integers(-(2**40), 2**40),
)


@pytest.mark.parametrize("codec_name", CODEC_NAMES)
@given(values=int_arrays)
@settings(max_examples=30, deadline=None)
def test_codec_roundtrip_property(codec_name, values):
    """decode(encode(x)) == x for arbitrary int64 arrays."""
    codec = make_codec(codec_name)
    block = codec.encode(values)
    assert np.array_equal(codec.decode(block), values)
    assert block.nbytes >= 0
    assert block.n_values == values.size


@given(
    n_candidates=st.integers(1, 100),
    quota_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_weighted_sampling_contract(n_candidates, quota_frac, seed):
    rng = np.random.default_rng(seed)
    candidates = rng.choice(10_000, n_candidates, replace=False)
    weights = rng.random(n_candidates) * (rng.random(n_candidates) > 0.3)
    n = int(quota_frac * n_candidates)
    out = weighted_sample_without_replacement(candidates, weights, n, rng)
    assert out.size == n
    assert np.unique(out).size == n
    assert np.isin(out, candidates).all()


@given(
    x=arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 10_000)),
    y=arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 10_000)),
)
@settings(max_examples=40, deadline=None)
def test_summary_store_events_are_concat(x, y):
    store = SummaryStore()
    store.add(1, {"a": x})
    store.add(2, {"a": y})
    assert store.combined("a") == ExactMoments.of(np.concatenate([x, y]))


@given(
    values=arrays(np.int64, st.integers(1, 100), elements=st.integers(0, 1000))
)
@settings(max_examples=30, deadline=None)
def test_aggregates_match_numpy(values):
    moments = ExactMoments.of(values)
    assert AggregateFunction.AVG.from_moments(moments) == pytest.approx(
        values.mean()
    )
    assert AggregateFunction.SUM.from_moments(moments) == pytest.approx(
        values.sum()
    )
    assert AggregateFunction.VAR.from_moments(moments) == pytest.approx(
        values.var(), abs=1e-6
    )


counts = arrays(np.int64, 16, elements=st.integers(0, 1000))


@given(p=counts, q=counts)
@settings(max_examples=50, deadline=None)
def test_divergence_properties(p, q):
    """Non-negativity, identity of indiscernibles (weak), symmetry."""
    assert kl_divergence(p, q) >= -1e-12
    js = js_divergence(p, q)
    assert -1e-12 <= js <= np.log(2) + 1e-9
    assert js == pytest.approx(js_divergence(q, p), abs=1e-9)
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-9)


@given(ops=st.lists(st.integers(0, 99), max_size=200))
@settings(max_examples=40)
def test_bitmap_random_walk(ops):
    """Single-row forget random walk keeps the active count exact."""
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": np.zeros(100, dtype=np.int64)})
    reference = np.ones(100, dtype=bool)
    for epoch, pos in enumerate(ops, start=1):
        assert table.forget(np.array([pos]), epoch) == int(reference[pos])
        reference[pos] = False
    assert table.active_count == int(reference.sum())
    assert np.array_equal(table.active_mask(), reference)
