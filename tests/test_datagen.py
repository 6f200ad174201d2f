"""Tests for repro.datagen: the value distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.errors import ConfigError
from repro.datagen import (
    DISTRIBUTION_NAMES,
    NormalDistribution,
    SerialDistribution,
    UniformDistribution,
    ZipfianDistribution,
    make_distribution,
)


def top_share(values, fraction):
    """Share of the mass held by the top ``fraction`` of distinct values."""
    counts = np.sort(np.bincount(values))[::-1]
    counts = counts[counts > 0]
    k = max(1, int(np.ceil(counts.size * fraction)))
    return counts[:k].sum() / counts.sum()


class TestSerial:
    def test_monotone_and_stateful(self, rng):
        dist = SerialDistribution()
        first = dist.sample(5, rng)
        second = dist.sample(5, rng)
        assert first.tolist() == [0, 1, 2, 3, 4]
        assert second.tolist() == [5, 6, 7, 8, 9]

    def test_reset(self, rng):
        dist = SerialDistribution(start=10)
        dist.sample(3, rng)
        dist.reset()
        assert dist.sample(1, rng)[0] == 10

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            SerialDistribution(start=-1)


class TestUniform:
    def test_bounds_and_coverage(self, rng):
        dist = UniformDistribution(domain=100)
        values = dist.sample(10_000, rng)
        assert values.min() >= 0 and values.max() <= 100
        # With 10k draws over 101 values, all must appear.
        assert np.unique(values).size == 101

    def test_mean_near_centre(self, rng):
        values = UniformDistribution(domain=1000).sample(50_000, rng)
        assert abs(values.mean() - 500) < 10


class TestNormal:
    def test_bounds_and_shape(self, rng):
        dist = NormalDistribution(domain=10_000)
        values = dist.sample(50_000, rng)
        assert values.min() >= 0 and values.max() <= 10_000
        assert abs(values.mean() - 5_000) < 50
        # Sigma = 20% of domain (slightly reduced by clipping).
        assert 1_800 < values.std() < 2_100

    def test_sigma_fraction_validated(self):
        with pytest.raises(ConfigError):
            NormalDistribution(sigma_fraction=0.0)
        with pytest.raises(ConfigError):
            NormalDistribution(sigma_fraction=1.5)


class TestZipfian:
    def test_bounds(self, rng):
        values = ZipfianDistribution(domain=1000).sample(10_000, rng)
        assert values.min() >= 0 and values.max() <= 1000

    def test_pareto_concentration(self, rng):
        """The 80-20 rule the paper cites: top values dominate."""
        values = ZipfianDistribution(domain=10_000).sample(50_000, rng)
        assert top_share(values, 0.2) > 0.75

    def test_theta_controls_skew(self, rng):
        flat = ZipfianDistribution(domain=1000, theta=0.5).sample(20_000, rng)
        steep = ZipfianDistribution(domain=1000, theta=2.0).sample(
            20_000, np.random.default_rng(12345)
        )
        assert top_share(steep, 0.05) > top_share(flat, 0.05)

    def test_permutation_scatters_hot_values(self, rng):
        """Dominant values are *random* domain points, not just 0,1,2..."""
        dist = ZipfianDistribution(domain=10_000, permutation_seed=3)
        values = dist.sample(20_000, rng)
        hot = np.bincount(values, minlength=10_001).argmax()
        assert hot > 100  # vanishingly unlikely without permutation

    def test_no_permutation_mode(self, rng):
        dist = ZipfianDistribution(domain=1000, permutation_seed=None)
        values = dist.sample(20_000, rng)
        assert np.bincount(values, minlength=1001).argmax() == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfianDistribution(theta=0.0)
        with pytest.raises(ConfigError):
            ZipfianDistribution(domain=1 << 25)


class TestFactory:
    def test_all_names(self):
        for name in DISTRIBUTION_NAMES:
            assert make_distribution(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_distribution("exotic")

    def test_kwargs_forwarded(self):
        dist = make_distribution("zipfian", domain=50, theta=1.5)
        assert dist.theta == 1.5
        assert dist.domain == 50

    def test_sample_validates_n(self, rng):
        with pytest.raises(ConfigError):
            make_distribution("uniform").sample(0, rng)
