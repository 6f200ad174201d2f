"""Property-based tests: every amnesia policy honours the contract.

For any table state and any feasible quota, a policy must return
exactly ``n`` distinct, active victims (privacy wrappers may overshoot
but never undershoot).  This is the invariant the simulator's budget
guarantee rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amnesia import (
    POLICY_NAMES,
    PrivacyRetentionWrapper,
    UniformAmnesia,
    make_policy,
)
from repro.storage import Table


def build_table(batch_sizes, seed):
    rng = np.random.default_rng(seed)
    table = Table("t", ["a"])
    for epoch, n in enumerate(batch_sizes):
        table.insert_batch(epoch, {"a": rng.integers(0, 500, n)})
    # Sprinkle access counts so frequency-driven policies see signal.
    active = table.active_positions()
    touched = rng.choice(active, max(active.size // 2, 1), replace=False)
    table.record_access(np.repeat(touched, 3), epoch=len(batch_sizes))
    return table


table_shapes = st.lists(st.integers(5, 40), min_size=1, max_size=5)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@given(batch_sizes=table_shapes, seed=st.integers(0, 2**31), quota_frac=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_policy_contract(policy_name, batch_sizes, seed, quota_frac):
    table = build_table(batch_sizes, seed)
    kwargs = (
        {"column": "a"} if policy_name in ("pair", "dist", "stratified") else {}
    )
    policy = make_policy(policy_name, **kwargs)
    n = int(quota_frac * table.active_count)
    rng = np.random.default_rng(seed + 1)

    victims = policy.select_victims(table, n, len(batch_sizes), rng)
    victims = np.asarray(victims, dtype=np.int64)

    assert victims.size == n
    assert np.unique(victims).size == victims.size
    if victims.size:
        assert table.is_active(victims).all()


@given(
    batch_sizes=table_shapes,
    seed=st.integers(0, 2**31),
    max_age=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_privacy_wrapper_contract(batch_sizes, seed, max_age):
    """Privacy wrapper: >= n victims, every expired tuple included."""
    table = build_table(batch_sizes, seed)
    policy = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=max_age)
    epoch = len(batch_sizes)
    n = min(5, table.active_count)
    victims = policy.select_victims(
        table, n, epoch, np.random.default_rng(seed)
    )
    assert victims.size >= n or victims.size == policy.expired(table, epoch).size
    assert np.unique(victims).size == victims.size
    expired = policy.expired(table, epoch)
    assert np.isin(expired, victims).all()


@pytest.mark.parametrize("policy_name", ["fifo", "uniform", "rot", "area"])
@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_exclusion_always_honoured(policy_name, seed):
    rng = np.random.default_rng(seed)
    table = Table("t", ["a"])
    table.insert_batch(0, {"a": rng.integers(0, 100, 60)})
    exclude = rng.choice(60, 20, replace=False)
    policy = make_policy(policy_name)
    victims = policy.select_victims(
        table, 30, 1, np.random.default_rng(seed + 1), exclude=exclude
    )
    assert not np.isin(victims, exclude).any()
