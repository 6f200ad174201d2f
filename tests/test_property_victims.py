"""Victim selection is unchanged by the sorted, hash-free forgetting path.

The select → validate → forget step works on ascending position arrays:
``active_positions`` skips fully forgotten cohorts, rot and the privacy
wrapper cut their age pools at a cohort boundary, exclusions are
removed by binary search, and ``validate_victims`` hands
``Table.forget`` its victims sorted.  This module keeps a frozen copy
of the earlier selection code (``np.unique``/``np.setdiff1d``/
``np.union1d`` sets and per-candidate age gathers) as an oracle and
drives both through random histories: every policy must pick the same
victims and leave its random generator in the same state.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import AmnesiaError, ReproError
from repro.amnesia import (
    POLICY_NAMES,
    FifoAmnesia,
    OveruseAmnesia,
    PrivacyRetentionWrapper,
    RotAmnesia,
    UniformAmnesia,
    make_policy,
)
from repro.amnesia import base, decay, extensions, rot, sampling, temporal
from repro.serving.result_cache import ResultCache
from repro.storage import Table

# -- the oracle: the selection code as it was, verbatim in behaviour ------


def _oracle_active_positions(self):
    return np.flatnonzero(self._active[: self._rows])


def _oracle_forget(self, positions, epoch):
    positions = self._checked(positions).ravel()
    if not (positions[1:] > positions[:-1]).all():
        positions = np.unique(positions)
    newly = positions[self._active[positions]]
    if newly.size:
        self._active[newly] = False
        self._forgotten_epoch[newly] = int(epoch)
        self._active_rows -= int(newly.size)
        self._cohorts.forget(newly)
        for observer in self._observers:
            observer.on_forget(self, newly)
    return int(newly.size)


def _oracle_candidates(self, table, exclude):
    active = table.active_positions()
    if exclude is None or len(exclude) == 0:
        return active
    exclude = np.asarray(exclude, dtype=np.int64)
    return np.setdiff1d(active, exclude, assume_unique=False)


def _oracle_validate_victims(self, table, victims, n):
    victims = np.asarray(victims, dtype=np.int64)
    if victims.ndim != 1:
        raise AmnesiaError(f"victims must be 1-D, got shape {victims.shape}")
    if np.unique(victims).size != victims.size:
        raise AmnesiaError(f"policy {self.name!r} returned duplicate victims")
    if victims.size != n and not (self.allows_overshoot and victims.size > n):
        raise AmnesiaError(
            f"policy {self.name!r} returned {victims.size} victims, expected {n}"
        )
    if victims.size and not table.is_active(victims).all():
        raise AmnesiaError(f"policy {self.name!r} selected already-forgotten tuples")
    return victims


def _oracle_weighted_sample(candidates, weights, n, rng):
    candidates = np.asarray(candidates, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if candidates.shape != weights.shape or candidates.ndim != 1:
        raise AmnesiaError("candidates and weights must be equal-length 1-D arrays")
    if n < 0:
        raise AmnesiaError(f"cannot sample a negative count {n}")
    if n > candidates.size:
        raise AmnesiaError(f"cannot sample {n} victims from {candidates.size}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise AmnesiaError("weights must be finite and non-negative")
    positive = weights > 0
    n_positive = int(np.count_nonzero(positive))
    if n_positive == 0:
        return sampling.uniform_sample_without_replacement(candidates, n, rng)
    take_weighted = min(n, n_positive)
    pool = candidates[positive]
    pool_weights = weights[positive]
    keys = rng.exponential(1.0, size=pool.size) / pool_weights
    if take_weighted == pool.size:
        chosen = pool
    else:
        idx = np.argpartition(keys, take_weighted - 1)[:take_weighted]
        chosen = pool[idx]
    if take_weighted == n:
        return chosen
    remainder = sampling.uniform_sample_without_replacement(
        candidates[~positive], n - take_weighted, rng
    )
    return np.concatenate([chosen, remainder])


def _oracle_rot_select(self, table, n, epoch, rng, exclude=None):
    candidates = self._candidates(table, exclude)
    self._require(candidates, n)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ages = epoch - table.insert_epochs()[candidates]
    seasoned = candidates[ages >= self.high_water_mark]
    if seasoned.size >= n:
        pool = seasoned
    else:
        fresh = candidates[ages < self.high_water_mark]
        fresh_ages = epoch - table.insert_epochs()[fresh]
        fresh = fresh[np.argsort(-fresh_ages, kind="stable")]
        pool = np.concatenate([seasoned, fresh[: n - seasoned.size]])
    freq = table.access_counts()[pool].astype(np.float64)
    weights = (1.0 + freq) ** (-self.frequency_exponent)
    return rot.weighted_sample_without_replacement(pool, weights, n, rng)


def _oracle_overuse_select(self, table, n, epoch, rng, exclude=None):
    candidates = self._candidates(table, exclude)
    self._require(candidates, n)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    freq = table.access_counts()[candidates].astype(np.float64)
    weights = (1.0 + freq) ** self.overuse_exponent
    return rot.weighted_sample_without_replacement(candidates, weights, n, rng)


def _oracle_expired(self, table, epoch):
    active = table.active_positions()
    ages = epoch - table.insert_epochs()[active]
    return active[ages >= self.max_age_epochs]


def _oracle_privacy_select(self, table, n, epoch, rng, exclude=None):
    expired = self.expired(table, epoch)
    if exclude is not None and len(exclude):
        expired = np.setdiff1d(expired, np.asarray(exclude, dtype=np.int64))
    if expired.size >= n:
        return expired
    remaining = n - expired.size
    merged_exclude = expired
    if exclude is not None and len(exclude):
        merged_exclude = np.union1d(expired, np.asarray(exclude, dtype=np.int64))
    discretionary = self.inner.select_victims(
        table, remaining, epoch, rng, exclude=merged_exclude
    )
    return np.concatenate([expired, np.asarray(discretionary, dtype=np.int64)])


def oracle():
    """Context in which the engine runs the frozen selection code."""
    stack = ExitStack()
    patches = [
        (Table, "active_positions", _oracle_active_positions),
        (Table, "forget", _oracle_forget),
        (base.AmnesiaPolicy, "_candidates", _oracle_candidates),
        (base.AmnesiaPolicy, "validate_victims", _oracle_validate_victims),
        (RotAmnesia, "select_victims", _oracle_rot_select),
        (OveruseAmnesia, "select_victims", _oracle_overuse_select),
        (PrivacyRetentionWrapper, "expired", _oracle_expired),
        (PrivacyRetentionWrapper, "select_victims", _oracle_privacy_select),
    ] + [
        (module, "weighted_sample_without_replacement", _oracle_weighted_sample)
        for module in (sampling, rot, temporal, decay, extensions)
    ]
    for owner, attr, replacement in patches:
        stack.enter_context(mock.patch.object(owner, attr, replacement))
    return stack


# -- the policies under test ------------------------------------------------


def _registered(name):
    kwargs = {"column": "a"} if name in ("pair", "dist", "stratified") else {}
    return lambda: make_policy(name, **kwargs)


POLICIES = {name: _registered(name) for name in POLICY_NAMES}
POLICIES.update(
    {
        f"rot_hwm{hwm}": (lambda hwm=hwm: RotAmnesia(high_water_mark=hwm))
        for hwm in range(4)
    }
)
POLICIES.update(
    {
        "privacy_rot": lambda: PrivacyRetentionWrapper(
            RotAmnesia(high_water_mark=2), max_age_epochs=3
        ),
        "privacy_uniform": lambda: PrivacyRetentionWrapper(
            UniformAmnesia(), max_age_epochs=2
        ),
        "privacy_fifo": lambda: PrivacyRetentionWrapper(
            FifoAmnesia(), max_age_epochs=4
        ),
    }
)

# One step of a history: (kind, size, fraction, seed).
steps = st.lists(
    st.tuples(
        st.sampled_from(["insert", "forget", "cohort", "access", "select", "select"]),
        st.integers(1, 30),
        st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=24,
)


class _Side:
    """One engine: a table, a policy, a victim stream and a result cache."""

    def __init__(self, make, seed):
        self.table = Table("t", ["a"])
        self.policy = make()
        self.rng = np.random.default_rng(seed)
        self.cache = ResultCache(max_entries=64)
        self.cache.watch("t", self.table)


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc)


def _check_rejections(policy, table, victims):
    """``validate_victims`` still refuses every malformed victim set."""
    n = victims.size
    with pytest.raises(AmnesiaError):
        policy.validate_victims(table, np.r_[victims, victims[:1]], n + 1)
    with pytest.raises(AmnesiaError):
        policy.validate_victims(table, victims.reshape(1, -1), n)
    if not policy.allows_overshoot:
        with pytest.raises(AmnesiaError):
            policy.validate_victims(table, victims[:-1], n)
    forgotten = table.forgotten_positions()
    if forgotten.size:
        with pytest.raises(AmnesiaError):
            policy.validate_victims(table, np.r_[victims[1:], forgotten[:1]], n)


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(history=steps, seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_victims_match_the_frozen_selection_code(name, history, seed):
    new, old = _Side(POLICIES[name], seed), _Side(POLICIES[name], seed)
    epoch = 0
    for kind, size, fraction, step_seed in history:
        draw = np.random.default_rng(step_seed)
        rows = new.table.total_rows
        if kind == "insert" or rows == 0:
            epoch += 1 + int(draw.integers(0, 3))
            values = {"a": draw.integers(0, 200, size)}
            for side, engine in ((new, ExitStack()), (old, oracle())):
                with engine:
                    positions = side.table.insert_batch(epoch, values)
                    side.policy.on_insert(side.table, positions, epoch)
        elif kind in ("forget", "cohort"):
            if kind == "forget":  # unsorted, repeated, already forgotten
                positions = draw.integers(0, rows, size)
            else:  # a whole cohort, so active_positions skips it
                cohort = new.table.cohorts[int(fraction * (len(new.table.cohorts) - 1))]
                positions = cohort.positions()[::-1]
            # One cached answer over two ascending runs of matches: its
            # cohort set, and whether this forget invalidates it, are
            # what np.unique over the cohort ordinals says.
            matches = np.sort(draw.integers(0, rows, size))
            new.cache.invalidate_source("t")
            entry = new.cache.store(
                "t", "q", {}, matches[::2], matches[1::2], new.table, None
            )
            cohorts_of = new.table.cohorts.index_of
            assert entry.cohorts == frozenset(np.unique(cohorts_of(matches)).tolist())
            newly = positions[new.table.is_active(positions)]
            touched = frozenset(np.unique(cohorts_of(newly)).tolist())
            flipped = new.table.forget(positions, epoch)
            with oracle():
                assert old.table.forget(positions, epoch) == flipped
            assert new.cache.entries_for("t") == int(not entry.cohorts & touched)
        elif kind == "access":
            positions = draw.integers(0, rows, size)
            new.table.record_access(positions, epoch)
            old.table.record_access(positions, epoch)
        else:
            exclude = None
            if size % 3 == 0:  # a non-empty exclusion, repeats and all
                exclude = draw.integers(0, rows, 1 + size // 3)
            with oracle():
                pool = old.policy._candidates(old.table, exclude)
            n = int(fraction * pool.size)
            got = _outcome(lambda: new.policy.select_victims(
                new.table, n, epoch, new.rng, exclude=exclude))
            with oracle():
                want = _outcome(lambda: old.policy.select_victims(
                    old.table, n, epoch, old.rng, exclude=exclude))
            assert new.rng.bit_generator.state == old.rng.bit_generator.state
            if isinstance(want, type):
                assert got is want
                continue
            assert np.array_equal(np.asarray(got), np.asarray(want))
            checked = new.policy.validate_victims(new.table, got, n)
            with oracle():
                expected = old.policy.validate_victims(old.table, want, n)
            assert np.array_equal(checked, np.sort(expected))
            if checked.size:
                _check_rejections(new.policy, new.table, checked)
            new.table.forget(checked, epoch)
            with oracle():
                old.table.forget(expected, epoch)
        assert np.array_equal(new.table.active_mask(), old.table.active_mask())
        assert np.array_equal(new.table.forgotten_epochs(), old.table.forgotten_epochs())
        assert np.array_equal(
            new.table.active_positions(), np.flatnonzero(new.table.active_mask())
        )
