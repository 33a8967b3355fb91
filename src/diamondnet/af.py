"""Amplify-and-forward: rate evaluation, coefficient optimization, bounds.

With amplify-and-forward every relay retransmits a scaled copy of what it
heard, so the network collapses to one effective AWGN link whose rate is

    log2(1 + snr * (sum_i w_i * alpha_i)**2 / (1 + sum_i v_i * alpha_i**2))

where alpha_i in [0, 1] is relay i's normalized amplification (1 = full
power) and w_i, v_i are signal/noise weights fixed by the gains. Scaling
phases are always chosen to add coherently, which is optimal for the rate
and keeps the model magnitude-only.

``af_optimize`` returns the exact global optimum of the coefficients: the
KKT conditions leave one free multiplier, and a sorted O(n log n) scan over
the relays held at full power finds it. ``af_grid_search`` is the
exhaustive desk-scale oracle it is tested against.

However many relays participate, the achievable rate never beats routing
over the single best relay by more than the 2*log2(n) beamforming gain;
``af_upper_bound`` computes that cap and ``af_snr_bound_sides`` exposes
the scalar inequality behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ValidationError
from .model import Network, RateTable, _ArrayValue, _check_range, _float_array
from .model import _to_int, rate_table


class AfCoefficients(_ArrayValue):
    """Normalized amplification magnitudes, one per relay, each in [0, 1]."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        alpha = _float_array("alpha", alpha)
        if alpha.size == 0:
            raise ValidationError("alpha must have at least one entry")
        _check_range("alpha", alpha, 1.0)
        self._freeze(alpha)

    @property
    def n(self) -> int:
        return int(self.alpha.size)


@dataclass(frozen=True, slots=True)
class AfReport:
    """Achieved rate, the coefficients, and the best-relay-plus-beamforming cap."""

    rate: float
    alpha: AfCoefficients
    upper_bound: float
    c1: float


def _af_weights(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per-relay signal weight w and forwarded-noise weight v.

    With beta_i**2 = snr * alpha_i**2 / (1 + gain_s_i**2 * snr):
    w_i = gain_d_i * gain_s_i * sqrt(snr / (1 + gain_s_i**2 * snr)),
    v_i = gain_d_i**2 * snr / (1 + gain_s_i**2 * snr).
    """
    gs, gd = net.gain_arrays()
    scale = net.snr / (1.0 + gs * gs * net.snr)
    w = gd * gs * np.sqrt(scale)
    v = gd * gd * scale
    return w, v


def _coerce_alpha(alpha, n: int) -> np.ndarray:
    if not isinstance(alpha, AfCoefficients):
        alpha = AfCoefficients(alpha)
    if alpha.n != n:
        raise ValidationError(
            f"alpha has {alpha.n} entries but the network has {n} relays"
        )
    return alpha.alpha


def af_rate(net: Network, alpha) -> float:
    """Amplify-and-forward rate of ``net`` under the given coefficients."""
    a = _coerce_alpha(alpha, net.n)
    w, v = _af_weights(net)
    return float(kernels.af_rate_batch(w, v, net.snr, a[None, :])[0])


def af_rate_batch(net: Network, alphas) -> np.ndarray:
    """Amplify-and-forward rate for each row of ``alphas`` (shape (m, n))."""
    alphas = _float_array("alphas", alphas, flat=False)
    if alphas.ndim != 2 or alphas.shape[1] != net.n:
        raise ValidationError(f"alphas must have shape (m, {net.n})")
    _check_range("alpha", alphas, 1.0)
    w, v = _af_weights(net)
    return np.asarray(kernels.af_rate_batch(w, v, net.snr, alphas))


def af_upper_bound(rt: RateTable) -> tuple[float, float]:
    """(c1 + 2*log2(n), c1) where c1 = max over relays of min(r_s, r_d).

    c1 is the rate of routing over the best single relay; amplify-and-forward
    with all n relays can only add the 2*log2(n) beamforming gain on top.
    """
    c1 = float(np.minimum(rt.r_s, rt.r_d).max())
    return c1 + 2.0 * math.log2(rt.n), c1


def af_snr_bound_sides(u_d, u_s, b) -> tuple[float, float]:
    """Both sides of the inequality capping the amplified SNR by the best relay.

    For positive linear SNRs u_d, u_s and power fractions b in [0, 1]:

        max(1, max_i u_d[i]*b[i]/(1+u_s[i])) * max_i min(u_d[i], u_s[i])
            >= max_i b[i]*u_d[i]*u_s[i]/(1+u_s[i])

    Returns (lhs, rhs); lhs >= rhs always.
    """
    u_d = _float_array("u_d", u_d)
    u_s = _float_array("u_s", u_s)
    b = _float_array("b", b)
    if not (u_d.size == u_s.size == b.size) or u_d.size == 0:
        raise ValidationError("u_d, u_s and b must share a positive length")
    if not (np.isfinite(u_d).all() and np.isfinite(u_s).all() and np.isfinite(b).all()):
        raise ValidationError("inputs must be finite")
    if (u_d <= 0.0).any() or (u_s <= 0.0).any():
        raise ValidationError("u_d and u_s must be positive")
    _check_range("b", b, 1.0)
    ratio = u_d * b / (1.0 + u_s)
    lhs = max(1.0, float(ratio.max())) * float(np.minimum(u_d, u_s).max())
    rhs = float((ratio * u_s).max())
    return lhs, rhs


def _kkt_alpha(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients maximizing (w.a)**2 / (1 + sum v*a**2) over [0, 1]**n.

    With S = w.a and D = 1 + sum v*a**2, the KKT conditions give
    alpha_i = min(1, lam * w_i / v_i) with lam = D / S shared by all relays,
    so the relays at full power are those with the largest w_i / v_i. If
    the top f of them are clipped, lam = (1 + V_f) / W_f (prefix sums of v
    and w); each f gives one candidate, scored in closed form from prefix
    and suffix sums. Relays with w_i / v_i not positive stay at 0.
    """
    alpha = np.zeros(w.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w / v  # inf when v underflows, nan or 0 for a dead relay
    live = np.nonzero(ratio > 0.0)[0]
    if live.size == 0:
        return alpha
    order = live[np.argsort(-ratio[live], kind="stable")]
    r = ratio[order]
    w_pre = np.concatenate(([0.0], np.cumsum(w[order])))
    v_pre = np.concatenate(([0.0], np.cumsum(v[order])))
    # sum of w_i * lam * r_i over unclipped relays is lam * (suffix sum of w*r)
    q_suf = np.concatenate((np.cumsum((w[order] * r)[::-1])[::-1], [0.0]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = (1.0 + v_pre[1:]) / w_pre[1:]
        clipped = np.searchsorted(-r, -1.0 / lam, side="right")
        q = q_suf[clipped]
        num = w_pre[clipped] + lam * q
        score = num * num / (1.0 + v_pre[clipped] + lam * lam * q)
        best = lam[int(np.argmax(np.where(np.isnan(score), -np.inf, score)))]
        alpha[live] = np.minimum(1.0, best * ratio[live])
    return alpha


def af_optimize(net: Network) -> AfReport:
    """Maximize the amplify-and-forward rate exactly, in O(n log n).

    The rate grows with g(a) = (w.a) / sqrt(1 + sum v*a**2), and g is
    quasi-concave on [0, 1]**n: each superlevel set {g >= t}, t > 0, is the
    second-order cone w.a >= t * ||(1, sqrt(v)*a)||. The box is compact, so
    a maximizer exists and satisfies the KKT conditions, which force
    alpha_i = min(1, lam * w_i / v_i) for one lam; scanning every clipped
    prefix visits that point, so the best candidate is the global optimum.
    It is compared through the rate kernel with full power everywhere
    (relays with a dead gain pinned to 0), and the better of the two is
    returned, so the result never drops below that start and never exceeds
    ``af_upper_bound``.
    """
    w, v = _af_weights(net)
    gs, gd = net.gain_arrays()
    start = np.where((gs > 0.0) & (gd > 0.0), 1.0, 0.0)
    alphas = np.stack((start, _kkt_alpha(w, v)))
    rates = kernels.af_rate_batch(w, v, net.snr, alphas)
    pick = 1 if rates[1] > rates[0] else 0
    bound, c1 = af_upper_bound(rate_table(net))
    return AfReport(
        rate=float(rates[pick]),
        alpha=AfCoefficients(alphas[pick]),
        upper_bound=bound,
        c1=c1,
    )


def af_grid_search(net: Network, points: int = 21) -> tuple[float, np.ndarray]:
    """Best rate over the full grid of ``points`` levels per coordinate.

    Exhaustive desk-scale oracle for ``af_optimize``; cost points**n, so
    keep n small. Returns (rate, alpha).
    """
    points = _to_int("points", points, minimum=2)
    n = net.n
    w, v = _af_weights(net)
    levels = np.linspace(0.0, 1.0, points)
    inner = min(n, 4)
    inner_block = (
        np.stack(
            np.meshgrid(*([levels] * inner), indexing="ij"), axis=-1
        ).reshape(-1, inner)
    )
    best_rate = -np.inf
    best_alpha = None
    # np.ndindex(()) yields one empty index, so n == inner runs one block
    outer_shape = (points,) * (n - inner)
    block = np.empty((inner_block.shape[0], n))
    block[:, n - inner:] = inner_block
    for outer_idx in np.ndindex(outer_shape):
        block[:, : n - inner] = levels[list(outer_idx)]
        rates = kernels.af_rate_batch(w, v, net.snr, block)
        idx = int(np.argmax(rates))
        if rates[idx] > best_rate:
            best_rate = float(rates[idx])
            best_alpha = block[idx].copy()
    return best_rate, best_alpha
