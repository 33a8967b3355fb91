"""Seeded random network generation.

Gains are drawn i.i.d. per link from either a Rayleigh(sigma) or a
log-uniform(lo, hi) distribution, as a single (n, 2) block whose column 0
is the source side, so a (n, params, seed) triple pins the network exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import Network

DISTRIBUTIONS = ("rayleigh", "loguniform")


def random_network(
    n: int,
    snr: float,
    seed: int,
    distribution: str = "rayleigh",
    *,
    sigma: float = 1.0,
    lo: float = 0.1,
    hi: float = 10.0,
) -> Network:
    """Deterministic random diamond network for the given seed."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    if distribution == "rayleigh":
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValidationError(f"sigma must be positive, got {sigma}")
        gains = rng.rayleigh(scale=sigma, size=(n, 2))
    elif distribution == "loguniform":
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise ValidationError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        gains = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, 2)))
    else:
        raise ValidationError(
            f"unknown distribution {distribution!r}; pick from {DISTRIBUTIONS}"
        )
    return Network.from_gains(snr, gains[:, 0], gains[:, 1])
