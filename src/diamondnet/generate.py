"""Seeded random network generation.

Gains are drawn i.i.d. per link from either a Rayleigh(sigma) or a
log-uniform(lo, hi) distribution, as a single (n, 2) block whose column 0
is the source side, so a (n, params, seed) triple pins the network exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import Network, _to_float, _to_int

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
    n = _to_int("n", n, minimum=1)
    rng = np.random.default_rng(_to_int("seed", seed, minimum=0))
    if distribution == "rayleigh":
        sigma = _to_float("sigma", sigma, "positive")
        gains = rng.rayleigh(scale=sigma, size=(n, 2))
        if gains.max() == math.inf:  # the draws are nonnegative
            raise ValidationError(
                f"sigma {sigma} is too large: the Rayleigh draws overflow"
            )
    elif distribution == "loguniform":
        lo = _to_float("lo", lo, "positive")
        hi = _to_float("hi", hi, "positive")
        if lo > hi:
            raise ValidationError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        gains = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, 2)))
    else:
        raise ValidationError(
            f"unknown distribution {distribution!r}; pick from {DISTRIBUTIONS}"
        )
    return Network(snr, gains[:, 0], gains[:, 1])
