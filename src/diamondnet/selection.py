"""Relay-subset selection with the k/(k+1) guarantee, and the bound calculators.

``select`` discovers, in O(kN) comparisons, a subset of at most k relays
whose own min-cut approximation is at least k/(k+1) of the full network's
omega. The construction walks threshold bins tau_j = j*omega/(k+1), less
a rounding margin, each formed by ``_tau`` as it is read: it anchors on a
relay with a top-bin source rate, then repeatedly finds relays whose
destination rates cover the remaining gap, recording the strictly
increasing bin certificate that forces termination within k-1 rounds. The
pick's own omega comes from the sorted scan behind ``omega_fast`` on its
rows. ``verify_selection`` checks that omega against the bound the
certificate proves, formed from the same thresholds (``_clears_bound``), so
it walks no cut lattice and has no size limit.

``omega_k_bruteforce`` / ``omega_k_ratio`` are the desk-scale oracles for
the best k-subnetwork at one k; ``omega_k_table`` gives the best value for
every k at once from a chain recurrence over relay pairs, bit-identical to
theirs.
``tight_config`` generates the worst-case family where the k/(k+1) fraction
is achieved exactly, and ``guarantee`` / ``hybrid_tradeoff`` evaluate the
resulting capacity lower bounds, the latter ``guarantee``'s for every k.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations

import numpy as np

from . import kernels
from .cuts import _sorted_scan, gap_constant, omega_fast
from .errors import DegenerateNetworkError, SizeLimitError, ValidationError
from .model import (
    _MAX_ARRAY_LEN,
    RateTable,
    _Value,
    _require,
    _to_float,
    _to_int,
    _to_tuple,
)

SUBSET_ENUMERATION_LIMIT = 10**6

# the achievability gap s(k) of each relaying strategy
_STRATEGY_GAPS = {
    "nnc": lambda k: 1.3 * _to_float("k", k),  # names a k past the float64 range
    "optimized": lambda k: math.log2(k + 1) + math.log2(k) + 1.0,
    "routing": lambda k: 0.0,
}

GAP_MODELS = tuple(_STRATEGY_GAPS)


class Certificate(_Value):
    """Threshold-bin witness produced by the constructive selection.

    ``anchor_bin`` is the integer a locating the anchor relay's destination
    rate in [tau_{k-a}, tau_{k-a+1}); it is None when the anchor already
    clears tau_k and is returned alone. ``bins`` is the strictly increasing
    sequence (a_0=0, a_1, ..., a_l) pinned by the non-terminal rounds.
    """

    __slots__ = ("anchor_bin", "bins")


class SelectionResult(_Value):
    """Chosen relay subset, its achieved omega, certificate and comparison count."""

    __slots__ = ("gamma", "omega_gamma", "certificate", "comparisons")


class GuaranteeReport(_Value):
    """Capacity lower bound for the best k-relay subnetwork.

    ``components`` is (multiplicative term, strategy gap, beamforming gap);
    the bound is their signed sum clipped at zero.
    """

    __slots__ = ("k", "lower_bound", "gap_model", "components")


class TradeoffReport(_Value):
    """Per-k guarantee table, the additive baseline, and the best k."""

    __slots__ = ("entries", "best_k", "baseline", "gap_model")


def _tau(omega, k):
    """The threshold function j -> tau_j = j * omega * (1 - 2**-50) / (k+1).

    Formed at an exact power-of-two scale: 2**-64 above 1, so that j * omega
    cannot overflow, and 2**64 at or below 1, so that a subnormal omega
    keeps its margin. The margin covers the rounding of ``omega_fast``'s sum
    (at most 2**-53 relative above the exact min cut) and the three
    roundings of tau, so tau_x + tau_y <= the exact min cut for x + y = k+1;
    a subnormal tau_j rounds to a multiple of 2**-1074, as the rates do.
    The thresholds never decrease in j, and tau_0 = 0.
    """
    scale = 2.0**-64 if omega > 1.0 else 2.0**64
    w = omega * scale * (1.0 - 2.0**-50)
    k1 = k + 1
    return lambda j: j * w / k1 / scale


def _first_hit(r_s, r_d, t_s, t_d, failure):
    """The first relay with r_s >= t_s and r_d >= t_d, from 2 * n rate
    tests. Without a hit, ``failure`` is raised."""
    hit = (r_s >= t_s) & (r_d >= t_d)
    y = int(hit.argmax())
    if not hit[y]:
        raise ValidationError(f"{failure}; omega is inconsistent with the rate table")
    return y


def select(rt: RateTable, k: int, omega: float) -> SelectionResult:
    """Find at most k relays whose subnetwork omega is >= (k/(k+1)) * omega.

    ``omega`` is the caller-supplied min-cut approximation of ``rt``
    (compute it once with ``omega_fast``). The thresholds tau_j are
    j * omega / (k+1) less a 2**-50 relative margin, each formed by ``_tau``
    as it is read; the bin of a rate, the largest j with tau_j <= rate, is
    found by bisection. Scans take the first qualifying relay in index order.

    Edge cases: when k >= n the iteration is skipped and all relays with a
    nonzero min-rate are returned (all relays when none qualify); when
    omega <= 0 the guarantee is vacuous and relay 1 is returned alone.

    Termination: the anchor's bin a is at most k-1, as its r_d >= tau_1,
    and the round bins rise strictly below a. Each scan finds a relay when
    tau_x + tau_y <= the exact min cut of ``rt`` for all x + y = k + 1, as
    the margin ensures at ``omega_fast``'s omega or any smaller one. A
    larger ``omega`` may fail with one of two ``ValidationError``s: no
    anchor relay clears the top threshold, or no relay qualifies at a round.

    A pick never qualifies again, so each scan runs over all relays: the
    anchor's r_d is below tau_{k-a+1} <= tau_{k-x}, the r_d test of a later
    round at bin x < a, and a round pick in bin b has r_s below tau_{b+1} <=
    tau_{x+1}, the r_s test of a later round at x >= b.

    ``comparisons`` counts the rate tests the scans make, 2 per relay per
    scan: 2 * n * (1 + len(certificate.bins)) for the anchor scan and one
    scan per round, at most 2 * n * k. The k >= n branch reports 2 * n (the
    min of each relay's pair, then its zero test), and omega <= 0 reports 0.

    ``omega_gamma`` comes from the sorted scan behind ``omega_fast`` on the
    pick's rows, bit-identical to ``omega_fast`` of the pick's own table.
    """
    _require("rt", rt, RateTable)
    k = _to_int("k", k, minimum=1)
    omega = _to_float("omega", omega, "nonnegative")
    gamma, certificate, comparisons = _pick(rt, k, omega)
    idx = np.array(gamma) - 1
    value = _sorted_scan(rt.r_s[idx], rt.r_d[idx])[1]
    return SelectionResult(gamma, value, certificate, comparisons)


def _pick(rt: RateTable, k: int, omega: float):
    """(gamma, certificate, comparisons) of ``select`` on checked arguments."""
    n, r_s, r_d = rt.n, rt.r_s, rt.r_d

    if k >= n:
        # whole network fits; zero-min-rate relays carry nothing and are dropped
        keep = np.flatnonzero(np.minimum(r_s, r_d) > 0.0) + 1
        gamma = tuple(keep.tolist()) if keep.size else tuple(range(1, n + 1))
        return gamma, None, 2 * n

    if omega <= 0.0:
        return (1,), None, 0

    tau = _tau(omega, k)
    failure = "no anchor relay clears the top threshold"
    p = _first_hit(r_s, r_d, tau(k), tau(1), failure)
    # the anchor's r_d is in bin k - a, and a = 0 returns it alone
    a = k - (bisect_right(range(k + 1), float(r_d[p]), key=tau) - 1)
    if a == 0:
        return (p + 1,), Certificate(None, ()), 2 * n

    gamma = [p + 1]  # in pick order
    bins = [0]
    failure = "no qualifying relay at a selection round"
    while True:
        y = _first_hit(r_s, r_d, tau(bins[-1] + 1), tau(k - bins[-1]), failure)
        gamma.append(y + 1)
        # the relay's r_s is in bin b, and b >= a ends the selection
        b = bisect_right(range(k + 1), float(r_s[y]), key=tau) - 1
        if b >= a:
            break
        bins.append(b)

    return tuple(sorted(gamma)), Certificate(a, tuple(bins)), 2 * n * (1 + len(bins))


def verify_selection(
    rt: RateTable, sel: SelectionResult, k: int, omega: float
) -> bool:
    """Exact check of the bound ``select`` proves for its pick.

    The check, with no tolerance, is that the subset's omega clears the
    bound of ``_clears_bound``. The subset's omega comes from the sorted scan
    behind ``omega_fast`` on its rows of ``rt``, bit-identical to the min
    over all 2**|gamma| cuts, so the check takes O(|gamma| log |gamma|)
    time at any size for a value of at least tau_k (``_clears_bound``), and
    O(k) more below it. The relay indices must be distinct integers in 1..n,
    and k must be below ``_MAX_ARRAY_LEN``, the limit ``tight_config`` puts
    on k.
    """
    n = _require("rt", rt, RateTable).n
    gamma = _require("sel", sel, SelectionResult).gamma
    k = _to_int("k", k, minimum=1)
    if k >= _MAX_ARRAY_LEN:
        raise ValidationError(f"k is too large: k must be below {_MAX_ARRAY_LEN}")
    idx = np.array(_checked_gamma(gamma, n)) - 1
    omega = _to_float("omega", omega, "nonnegative")
    return _clears_bound(_sorted_scan(rt.r_s[idx], rt.r_d[idx])[1], omega, k)


def _clears_bound(value, omega, k):
    """Whether a pick's omega ``value`` is at least the bound ``select``
    proves: the least float sum tau_x + tau_(k-x) over x in 0..k (the same
    at x and k - x), tau from ``_tau(omega, k)``. Every cut of a pick
    crosses relays worth one such sum.

    The sums are formed one at a time from x = 0, and the first the value
    clears ends the check. As tau_0 = 0, the x = 0 sum is tau_k, just under
    (k/(k+1)) * omega, so a value of at least tau_k is checked at once; a
    smaller one takes O(k) time. No list of thresholds is built.
    """
    tau = _tau(omega, k)
    return any(value >= tau(x) + tau(k - x) for x in range(k // 2 + 1))


def _checked_gamma(gamma, n):
    """``gamma`` as a tuple of distinct int relay indices in 1..n."""
    gamma = _to_tuple("selection relay set", gamma)
    if not gamma:
        raise ValidationError("selection has an empty relay set")
    if not set(map(type, gamma)) <= {int}:
        gamma = tuple(_to_int("selected relay index", i) for i in gamma)
    if min(gamma) < 1 or max(gamma) > n:
        raise ValidationError("selected relay index out of range")
    if len(set(gamma)) != len(gamma):
        raise ValidationError(f"selected relay indices must be distinct, got {gamma}")
    return gamma


def omega_k_bruteforce(rt: RateTable, k: int) -> tuple[float, tuple[int, ...]]:
    """Exact max of omega over all k-relay subsets, with its first argmax.

    Ties resolve to the lexicographically smallest subset. Guarded at
    C(n, k) <= 10**6 enumerated subsets.
    """
    n = _require("rt", rt, RateTable).n
    k = _to_int("k", k, minimum=1)
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of relays n={n}")
    count = math.comb(n, k)
    if count > SUBSET_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"C({n},{k}) = {count} subsets exceeds the enumeration limit "
            f"{SUBSET_ENUMERATION_LIMIT}"
        )
    members = np.fromiter(
        (i for combo in combinations(range(n), k) for i in combo),
        dtype=np.int64,
        count=count * k,
    ).reshape(count, k)
    values = kernels.omega_rows(rt.r_s[members], rt.r_d[members])
    best = int(np.argmax(values))
    return float(values[best]), tuple(int(i) + 1 for i in members[best])


def omega_k_table(rt: RateTable) -> tuple[float, ...]:
    """Max of omega over all k-relay subsets, for every k in 1..n.

    Entry k-1 is bit-identical to ``omega_k_bruteforce(rt, k)[0]``; all n
    come from one chain recurrence (``kernels.best_chains``) in O(rounds *
    n**2) time, rounds <= n. Guarded at n**2 <= 10**6 relay pairs (n <= 1000).
    """
    n = _require("rt", rt, RateTable).n
    if n * n > SUBSET_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"{n}**2 relay pairs exceeds the enumeration limit "
            f"{SUBSET_ENUMERATION_LIMIT}"
        )
    return tuple(kernels.best_chains(rt.r_s, rt.r_d).tolist())


def omega_k_ratio(rt: RateTable, k: int) -> float:
    """Ratio of the best k-subnetwork omega to the full omega.

    Always in [k/(k+1), 1] and nondecreasing in k. Undefined on
    all-zero-rate networks.
    """
    omega = omega_fast(rt).value
    if omega <= 0.0:
        raise DegenerateNetworkError(
            "omega is zero; the subnetwork ratio is undefined"
        )
    value, _ = omega_k_bruteforce(rt, k)
    return value / omega


def tight_config(k: int, base_rate: float = 1.0) -> RateTable:
    """The (k+1)-relay staircase on which the k/(k+1) fraction is exact.

    Relay i of [1, k+1] gets r_s = i * base_rate and r_d = (k+2-i) *
    base_rate, so omega = (k+1) * base_rate while every k-subset achieves
    exactly k * base_rate.
    """
    k = _to_int("k", k, minimum=1)
    if k + 1 > _MAX_ARRAY_LEN:
        raise ValidationError("k is too large: k + 1 relays exceed numpy's array size")
    base_rate = _to_float("base_rate", base_rate, "positive")
    if (k + 1) * base_rate == math.inf:  # the largest rate of the staircase
        raise ValidationError(
            f"base_rate {base_rate} is too large for k = {k}: "
            "(k + 1) * base_rate overflows"
        )
    idx = np.arange(1, k + 2, dtype=np.float64)
    return RateTable(idx * base_rate, (k + 2 - idx) * base_rate)


def _check_gap_model(gap_model, k=1):
    """Reject an unknown gap model, and the routing model with k != 1."""
    if gap_model not in GAP_MODELS:
        raise ValidationError(f"unknown gap model {gap_model!r}; pick from {GAP_MODELS}")
    if gap_model == "routing" and k != 1:
        raise ValidationError("the routing gap model applies to k=1 only")


def strategy_gap(k: int, gap_model: str) -> float:
    """Achievability gap of the relaying strategy backing the guarantee.

    nnc: 1.3 * k. optimized: log2(k+1) + log2(k) + 1. routing: 0 (a single
    relay needs no network code; only valid for k = 1).
    """
    k = _to_int("k", k, minimum=1)
    _check_gap_model(gap_model, k)
    return _STRATEGY_GAPS[gap_model](k)


def _bound(c_bar_approx, k, gap, gap_model):
    """(lower bound, components) of ``guarantee`` on checked arguments,
    where ``gap`` is ``gap_constant(n)``."""
    frac = k / (k + 1)
    mult = frac * c_bar_approx
    sgap = _STRATEGY_GAPS[gap_model](k)
    bgap = frac * gap
    return max(0.0, mult - sgap - bgap), (mult, sgap, bgap)


def guarantee(
    c_bar_approx: float, k: int, n: int, gap_model: str = "nnc"
) -> GuaranteeReport:
    """Capacity lower bound (k/(k+1))*c - s(k) - (k/(k+1))*G(n), clipped at 0.

    ``c_bar_approx`` approximates the cut-set bound of the full n-relay
    network; s(k) is ``strategy_gap``; G(n) is ``gap_constant``.
    """
    c_bar_approx = _to_float("c_bar_approx", c_bar_approx, "nonnegative")
    k = _to_int("k", k, minimum=1)
    n = _to_int("n", n, minimum=1)
    if k > n:
        raise ValidationError(f"k={k} exceeds n={n}")
    _check_gap_model(gap_model, k)
    lower, components = _bound(c_bar_approx, k, gap_constant(n), gap_model)
    return GuaranteeReport(k, lower, gap_model, components)


def hybrid_tradeoff(
    c_bar_approx: float, n: int, gap_model: str = "nnc"
) -> TradeoffReport:
    """Guarantee for every k, against the purely additive baseline c - 1.3*n.

    ``best_k`` is the smallest k maximizing the guarantee. The routing
    model only admits k = 1, so its table has a single row. Entry k is
    ``guarantee(c_bar_approx, k, n, gap_model).lower_bound``, by ``_bound``.
    """
    n = _to_int("n", n, minimum=1)
    _check_gap_model(gap_model)
    c_bar_approx = _to_float("c_bar_approx", c_bar_approx, "nonnegative")
    # before the table, so an n past the float64 range is an error, not a long loop
    baseline = max(0.0, c_bar_approx - 1.3 * _to_float("n", n))
    gap = gap_constant(n)
    ks = (1,) if gap_model == "routing" else range(1, n + 1)
    entries = tuple((k, _bound(c_bar_approx, k, gap, gap_model)[0]) for k in ks)
    best_k = max(entries, key=lambda entry: entry[1])[0]  # the first, so the smallest
    return TradeoffReport(entries, best_k, baseline, gap_model)
