"""Value distributions for the simulated data streams.

Paper §2.1 uses four prototypical distributions over the integer range
``R = 0..DOMAIN``:

* **serial** — an auto-increment key, modelling temporal insertion order;
* **uniform** — benchmark-style data (TPC-H);
* **normal** — centred on the domain mean with a standard deviation of
  20 % of the domain;
* **skewed** — a (bounded) Zipfian, modelling the Pareto 80–20 rule,
  where *some random values* are dominant.

Every distribution draws from a caller-supplied
:class:`numpy.random.Generator`, so data streams are reproducible and
independent of query/policy randomness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._util.errors import ConfigError
from .._util.validation import check_positive_int

__all__ = [
    "ValueDistribution",
    "SerialDistribution",
    "UniformDistribution",
    "NormalDistribution",
    "ZipfianDistribution",
    "DISTRIBUTION_NAMES",
    "make_distribution",
]

#: Default upper bound of the value domain (paper leaves it open; 10 000
#: gives 10 distinct values per tuple at the paper's dbsize=1000).
DEFAULT_DOMAIN = 10_000


class ValueDistribution(ABC):
    """A stream of integer attribute values in ``[0, domain]``.

    Subclasses may be stateful (``serial`` is); :meth:`reset` restores
    the initial state so a distribution object can be reused across
    simulator runs.
    """

    #: Short name used in factory lookups, figures and CLI flags.
    name: str = "abstract"

    def __init__(self, domain: int = DEFAULT_DOMAIN):
        self.domain = check_positive_int(domain, "domain")

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` values as an ``int64`` array."""

    def reset(self) -> None:
        """Restore initial state (no-op for stateless distributions)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(domain={self.domain})"


class SerialDistribution(ValueDistribution):
    """Monotonically increasing values: an auto-increment key.

    Models "both an auto-increment key and a temporal order of tuple
    insertions" (§2.1).  The counter is unbounded by design — an
    auto-increment key does not wrap — so ``domain`` only scales the
    other distributions it is compared against.

    >>> d = SerialDistribution()
    >>> d.sample(3, np.random.default_rng(0)).tolist()
    [0, 1, 2]
    >>> d.sample(2, np.random.default_rng(0)).tolist()
    [3, 4]
    """

    name = "serial"

    def __init__(self, domain: int = DEFAULT_DOMAIN, start: int = 0):
        super().__init__(domain)
        if start < 0:
            raise ConfigError(f"start must be >= 0, got {start}")
        self._start = int(start)
        self._next = int(start)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_positive_int(n, "n")
        out = np.arange(self._next, self._next + n, dtype=np.int64)
        self._next += n
        return out

    def reset(self) -> None:
        self._next = self._start


class UniformDistribution(ValueDistribution):
    """Independent uniform draws over ``[0, domain]`` (TPC-H style)."""

    name = "uniform"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_positive_int(n, "n")
        return rng.integers(0, self.domain + 1, size=n, dtype=np.int64)


class NormalDistribution(ValueDistribution):
    """Normal draws around the domain mean, σ = 20 % of the domain.

    Values are clipped into ``[0, domain]``; with σ = 0.2·domain the
    clipped mass is ~1.2 % per tail, which matches the paper's loose
    "normal data distributions around the DOMAIN range mean" spec.
    """

    name = "normal"

    def __init__(self, domain: int = DEFAULT_DOMAIN, sigma_fraction: float = 0.20):
        super().__init__(domain)
        if not 0.0 < sigma_fraction <= 1.0:
            raise ConfigError(
                f"sigma_fraction must be in (0, 1], got {sigma_fraction}"
            )
        self.sigma_fraction = float(sigma_fraction)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_positive_int(n, "n")
        mean = self.domain / 2.0
        sigma = self.domain * self.sigma_fraction
        draws = rng.normal(loc=mean, scale=sigma, size=n)
        return np.clip(np.rint(draws), 0, self.domain).astype(np.int64)


class ZipfianDistribution(ValueDistribution):
    """Bounded Zipfian draws: a few (random) values dominate.

    Rank ``k`` (1-based) is drawn with probability proportional to
    ``k**-theta`` over ``domain + 1`` ranks, then mapped to a concrete
    value through a random permutation of the domain, fixed per
    instance — "some (random) values are dominant" (§2.1).  The default
    ``theta = 1.2`` produces roughly the Pareto 80–20 concentration the
    paper cites.

    Sampling uses the inverse-CDF method over a precomputed table, so a
    draw is one binary search per value.
    """

    name = "zipfian"

    #: Domains larger than this would make the CDF table unreasonably
    #: large; the simulator targets laptop-scale domains anyway.
    MAX_TABLE = 1 << 24

    def __init__(
        self,
        domain: int = DEFAULT_DOMAIN,
        theta: float = 1.2,
        permutation_seed: int | None = 0,
    ):
        super().__init__(domain)
        if theta <= 0.0:
            raise ConfigError(f"theta must be > 0, got {theta}")
        if domain + 1 > self.MAX_TABLE:
            raise ConfigError(
                f"domain {domain} too large for tabulated Zipf (max {self.MAX_TABLE - 1})"
            )
        self.theta = float(theta)
        self.permutation_seed = permutation_seed
        ranks = np.arange(1, self.domain + 2, dtype=np.float64)
        weights = ranks ** (-self.theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if permutation_seed is None:
            self._perm = np.arange(self.domain + 1, dtype=np.int64)
        else:
            perm_rng = np.random.default_rng(permutation_seed)
            self._perm = perm_rng.permutation(self.domain + 1).astype(np.int64)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_positive_int(n, "n")
        u = rng.random(n)
        ranks = np.searchsorted(self._cdf, u, side="left")
        return self._perm[ranks]


DISTRIBUTION_NAMES = ("serial", "uniform", "normal", "zipfian")

_FACTORIES = {
    "serial": SerialDistribution,
    "uniform": UniformDistribution,
    "normal": NormalDistribution,
    "zipfian": ZipfianDistribution,
}


def make_distribution(
    name: str, domain: int = DEFAULT_DOMAIN, **kwargs
) -> ValueDistribution:
    """Build a distribution by short name.

    >>> make_distribution("uniform").name
    'uniform'
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown distribution {name!r}; choose from {DISTRIBUTION_NAMES}"
        ) from None
    return factory(domain=domain, **kwargs)
