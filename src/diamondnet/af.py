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
over the single best relay by more than the 2*log2(n) beamforming gain.
``af_upper_bound`` is the one code that forms that cap, from a rate table;
``af_optimize`` reports only the rate and its coefficients.
``af_snr_bound_sides`` exposes the scalar inequality behind the cap.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import SizeLimitError, ValidationError
from .model import Network, RateTable, _Value, _check_range, _float_array
from .model import _float_rows, _require, _to_int

# the most coefficient rows ``af_grid_search`` evaluates
GRID_LIMIT = 10**6


class AfCoefficients(_Value):
    """Normalized amplification magnitudes, one per relay, each in [0, 1]."""

    __slots__ = ("alpha",)
    __hash__ = None

    def __init__(self, alpha):
        alpha = _float_array("alpha", alpha)
        if alpha.size == 0:
            raise ValidationError("alpha must have at least one entry")
        _check_range("alpha", alpha, 1.0)
        alpha.flags.writeable = False
        super().__init__(alpha)

    @property
    def n(self) -> int:
        return int(self.alpha.size)


class AfReport(_Value):
    """Achieved rate and the coefficients that achieve it."""

    __slots__ = ("rate", "alpha")


def _af_weights(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per-relay signal weight w and forwarded-noise weight v.

    With beta_i**2 = snr * alpha_i**2 / (1 + gain_s_i**2 * snr):
    w_i = gain_d_i * gain_s_i * sqrt(snr / (1 + gain_s_i**2 * snr)),
    v_i = gain_d_i**2 * snr / (1 + gain_s_i**2 * snr).

    Overflow rule: when gain_s**2 * snr, gain_d * gain_s and gain_d**2 fit
    at the largest gains (tested once on Python floats, which never warn;
    rounding is monotone), w and v are the expressions above as written.
    Otherwise (snr < 1 with a gain near 2**512, or gain_s**2 * snr rounding
    past the float64 maximum), w = gain_d * (gain_s * sqrt(snr) / sqrt(1 +
    snr * gain_s**2)) and v = snr * gain_d**2 / (1 + snr * gain_s**2), whose
    intermediates stay near a gain or an snr * gain**2, which ``Network``
    keeps finite.
    """
    gs, gd = net.gain_arrays()
    snr = net.snr
    top_s, top_d = float(gs.max()), float(gd.max())
    if max(top_s * top_s * snr, top_d * top_s, top_d * top_d) < math.inf:
        scale = snr / (1.0 + gs * gs * snr)
        return gd * gs * np.sqrt(scale), gd * gd * scale
    den = 1.0 + snr * gs * gs
    return gd * (gs * math.sqrt(snr) / np.sqrt(den)), snr * gd * gd / den


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
    a = _coerce_alpha(alpha, _require("net", net, Network).n)
    w, v = _af_weights(net)
    return float(kernels.af_rate_batch(w, v, net.snr, a[None, :])[0])


def af_rate_batch(net: Network, alphas) -> np.ndarray:
    """Amplify-and-forward rate for each row of ``alphas`` (shape (m, n))."""
    _require("net", net, Network)
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
    _require("rt", rt, RateTable)
    c1 = float(np.minimum(rt.r_s, rt.r_d).max())
    return c1 + 2.0 * math.log2(rt.n), c1


def af_snr_bound_sides(u_d, u_s, b) -> tuple[float, float]:
    """Both sides of the inequality capping the amplified SNR by the best relay.

    For positive linear SNRs u_d, u_s and power fractions b in [0, 1]:

        max(1, max_i u_d[i]*b[i]/(1+u_s[i])) * max_i min(u_d[i], u_s[i])
            >= max_i b[i]*u_d[i]*u_s[i]/(1+u_s[i])

    Returns (lhs, rhs); lhs >= rhs always.
    """
    length = "u_d, u_s and b must share a positive length"
    rows = _float_rows(("u_d", "u_s", "b"), (u_d, u_s, b), length)
    if rows.shape[1] == 0:
        raise ValidationError(length)
    u_d, u_s, b = rows
    # one bulk test of the three rows passes good inputs (NaN fails it); the
    # checks that name the fault, in their order, run only when it fails
    lo, hi = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
    if not (lo[0] > 0.0 and lo[1] > 0.0 and max(hi[:2]) < math.inf
            and lo[2] >= 0.0 and hi[2] <= 1.0):
        if not np.isfinite(rows).all():
            raise ValidationError("inputs must be finite")
        if (rows[:2] <= 0.0).any():
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

    Before the scan, w and w / v are scaled by 2**-e, which puts the
    largest live w in [0.5, 1). Within the normal float range a power of
    two scales exactly, so each lam * w_i / v_i keeps its bits and each
    score is 4**-e times what it was, but the sums of w * w / v and
    num * num no longer overflow when w is near 1e154 or more.
    """
    alpha = np.zeros(w.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = w / v  # inf when v underflows, nan or 0 for a dead relay
        live = np.flatnonzero(ratio > 0.0)
        if live.size == 0:
            return alpha
        e = math.frexp(w[live].max())[1]
        w, ratio = np.ldexp(w, -e), np.ldexp(ratio, -e)
        order = live[(-ratio[live]).argsort(kind="stable")]
        r = ratio[order]
        w_ord = w[order]
        # prefix sums of w and v, and the suffix sums q of w*r, each with a
        # zero at its empty end; sum of w_i * lam * r_i over unclipped
        # relays is lam * q
        w_pre, v_pre, q_suf = np.zeros((3, live.size + 1))
        np.add.accumulate(w_ord, out=w_pre[1:])
        np.add.accumulate(v[order], out=v_pre[1:])
        np.add.accumulate((w_ord * r)[::-1], out=q_suf[-2::-1])
        lam = (1.0 + v_pre[1:]) / w_pre[1:]
        clipped = (-r).searchsorted(-1.0 / lam, side="right")
        q = q_suf[clipped]
        num = w_pre[clipped] + lam * q
        score = num * num / (1.0 + v_pre[clipped] + lam * lam * q)
        best = lam[int(np.fmax(score, -np.inf).argmax())]  # a NaN scores -inf
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
    w, v = _af_weights(_require("net", net, Network))
    gs, gd = net.gain_arrays()
    start = ((gs > 0.0) & (gd > 0.0)).astype(np.float64)
    alphas = np.array((start, _kkt_alpha(w, v)))
    rates = kernels.af_rate_batch(w, v, net.snr, alphas)
    pick = 1 if rates[1] > rates[0] else 0
    return AfReport(float(rates[pick]), AfCoefficients(alphas[pick]))


def af_grid_search(net: Network, points: int = 21) -> tuple[float, np.ndarray]:
    """Best rate over the full grid of ``points`` levels per coordinate.

    Exhaustive desk-scale oracle for ``af_optimize``; it costs points**n
    rate evaluations, and a grid of more than ``GRID_LIMIT`` points is
    refused with a ``SizeLimitError``. Returns (rate, alpha).
    """
    n = _require("net", net, Network).n
    points = _to_int("points", points, minimum=2)
    # 2**20 is past the limit, so any n >= 20 is too
    if points ** min(n, 20) > GRID_LIMIT:
        raise SizeLimitError(
            f"a grid of {points}**{n} points exceeds the limit {GRID_LIMIT}"
        )
    w, v = _af_weights(net)
    levels = np.linspace(0.0, 1.0, points)
    # a block holds the trailing coordinates, as many as fit 2**16 rows, one at least
    inner = 1
    while inner < n and points ** (inner + 1) <= 1 << 16:
        inner += 1
    block = np.empty((points**inner, n))
    grid = np.meshgrid(*[levels] * inner, indexing="ij")
    block[:, n - inner :] = np.stack(grid, axis=-1).reshape(-1, inner)
    best_rate, best_alpha = -np.inf, None
    # np.ndindex(()) yields one empty index, so n == inner runs one block
    for outer_idx in np.ndindex((points,) * (n - inner)):
        block[:, : n - inner] = levels[list(outer_idx)]
        rates = kernels.af_rate_batch(w, v, net.snr, block)
        idx = int(np.argmax(rates))
        if rates[idx] > best_rate:
            best_rate, best_alpha = float(rates[idx]), block[idx].copy()
    return best_rate, best_alpha
