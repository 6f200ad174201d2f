"""Tests for privacy retention and the policy registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError
from repro.amnesia import (
    POLICY_NAMES,
    FifoAmnesia,
    PrivacyRetentionWrapper,
    RotAmnesia,
    UniformAmnesia,
    make_policy,
)
from repro.storage import Table


class TestPrivacyRetention:
    def test_expired_detection(self, epoch_table):
        wrapper = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=2)
        expired = wrapper.expired(epoch_table, epoch=2)
        # Epoch-0 tuples (positions 0..19) have age 2 >= 2.
        assert sorted(expired.tolist()) == list(range(20))

    def test_expired_always_selected(self, epoch_table, rng):
        wrapper = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=2)
        victims = wrapper.select_victims(epoch_table, 5, 2, rng)
        # Overshoot: all 20 expired returned although only 5 were asked.
        assert victims.size == 20
        assert sorted(victims.tolist()) == list(range(20))

    def test_quota_topped_up_by_inner(self, epoch_table, rng):
        wrapper = PrivacyRetentionWrapper(FifoAmnesia(), max_age_epochs=3)
        # Nothing expired at epoch 2 with limit 3; inner fifo fills all 5.
        victims = wrapper.select_victims(epoch_table, 5, 2, rng)
        assert victims.tolist() == [0, 1, 2, 3, 4]

    def test_mixed_expired_plus_discretionary(self, epoch_table, rng):
        wrapper = PrivacyRetentionWrapper(FifoAmnesia(), max_age_epochs=2)
        victims = wrapper.select_victims(epoch_table, 25, 2, rng)
        assert victims.size == 25
        # 20 expired + 5 oldest discretionary (epoch-1 head).
        assert sorted(victims.tolist()) == list(range(25))

    def test_overshoot_flag_and_validation(self, epoch_table, rng):
        wrapper = PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=2)
        victims = wrapper.select_victims(epoch_table, 5, 2, rng)
        out = wrapper.validate_victims(epoch_table, victims, 5)
        assert out.size == 20  # overshoot accepted

    def test_name_and_reset(self):
        wrapper = PrivacyRetentionWrapper(RotAmnesia(), max_age_epochs=2)
        assert wrapper.name == "privacy(rot)"
        wrapper.reset()  # must not raise

    def test_validation(self):
        with pytest.raises(ConfigError):
            PrivacyRetentionWrapper(UniformAmnesia(), max_age_epochs=0)

    def test_respects_exclusion(self, epoch_table, rng):
        wrapper = PrivacyRetentionWrapper(FifoAmnesia(), max_age_epochs=2)
        victims = wrapper.select_victims(
            epoch_table, 5, 2, rng, exclude=np.arange(10)
        )
        # Excluded expired tuples are not re-selected.
        assert not np.isin(victims, np.arange(10)).any()


class TestRegistry:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            kwargs = {"column": "a"} if name in ("pair", "dist", "stratified") else {}
            policy = make_policy(name, **kwargs)
            assert policy.name == name

    def test_kwargs_forwarded(self):
        policy = make_policy("rot", high_water_mark=3)
        assert policy.high_water_mark == 3

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_policy("total-recall")

    def test_registry_covers_paper_figures(self):
        from repro.amnesia import FIGURE1_POLICIES, FIGURE3_POLICIES

        assert set(FIGURE1_POLICIES) <= set(POLICY_NAMES)
        assert set(FIGURE3_POLICIES) <= set(POLICY_NAMES)
        assert "rot" in FIGURE3_POLICIES and "rot" not in FIGURE1_POLICIES
