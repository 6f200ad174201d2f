"""Data generators: the paper's four value distributions."""

from .distributions import (
    DEFAULT_DOMAIN,
    DISTRIBUTION_NAMES,
    NormalDistribution,
    SerialDistribution,
    UniformDistribution,
    ValueDistribution,
    ZipfianDistribution,
    make_distribution,
)

__all__ = [
    "DEFAULT_DOMAIN",
    "DISTRIBUTION_NAMES",
    "NormalDistribution",
    "SerialDistribution",
    "UniformDistribution",
    "ValueDistribution",
    "ZipfianDistribution",
    "make_distribution",
]
