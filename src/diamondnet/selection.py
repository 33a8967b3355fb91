"""Relay-subset selection with the k/(k+1) guarantee, and the bound calculators.

``select`` discovers, in O(kN) comparisons, a subset of at most k relays
whose own min-cut approximation is at least k/(k+1) of the full network's
omega. The construction walks threshold bins tau_j = j*omega/(k+1): it
anchors on a relay with a top-bin source rate, then repeatedly finds relays
whose destination rates cover the remaining gap, recording the strictly
increasing bin certificate that forces termination within k-1 rounds.

``omega_k_bruteforce`` / ``omega_k_ratio`` are the desk-scale oracles for
the best k-subnetwork at one k; ``omega_k_table`` gives the best value for
every k at once from one pass over the 2**n subsets, equal to them under
``==`` (a zero entry may differ from theirs in sign).
``tight_config`` generates the worst-case family where the k/(k+1) fraction
is achieved exactly, and ``guarantee`` / ``hybrid_tradeoff`` evaluate the
resulting capacity lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import kernels
from .cuts import BRUTE_FORCE_LIMIT, gap_constant, omega_fast
from .errors import DegenerateNetworkError, SizeLimitError, ValidationError
from .model import RateTable, _to_float, _to_int

SUBSET_ENUMERATION_LIMIT = 10**6

# the achievability gap s(k) of each relaying strategy
_STRATEGY_GAPS = {
    "nnc": lambda k: 1.3 * k,
    "optimized": lambda k: math.log2(k + 1) + math.log2(k) + 1.0,
    "routing": lambda k: 0.0,
}

GAP_MODELS = tuple(_STRATEGY_GAPS)


@dataclass(frozen=True, slots=True)
class Certificate:
    """Threshold-bin witness produced by the constructive selection.

    ``anchor_bin`` is the integer a locating the anchor relay's destination
    rate in [tau_{k-a}, tau_{k-a+1}); it is None when the anchor already
    clears tau_k and is returned alone. ``bins`` is the strictly increasing
    sequence (a_0=0, a_1, ..., a_l) pinned by the non-terminal rounds.
    """

    anchor_bin: int | None
    bins: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Chosen relay subset, its achieved omega, certificate and comparison count."""

    gamma: tuple[int, ...]
    omega_gamma: float
    certificate: Certificate | None
    comparisons: int


@dataclass(frozen=True, slots=True)
class GuaranteeReport:
    """Capacity lower bound for the best k-relay subnetwork.

    ``components`` is (multiplicative term, strategy gap, beamforming gap);
    the bound is their signed sum clipped at zero.
    """

    k: int
    lower_bound: float
    gap_model: str
    components: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class TradeoffReport:
    """Per-k guarantee table, the additive baseline, and the best k."""

    entries: tuple[tuple[int, float], ...]
    best_k: int
    baseline: float
    gap_model: str


def _selection(rt: RateTable, gamma, certificate, comparisons) -> SelectionResult:
    """The result for relay set ``gamma``, with the omega of its subnetwork."""
    idx = np.array(gamma, dtype=np.int64) - 1
    return SelectionResult(
        gamma=gamma,
        omega_gamma=float(kernels.omega_rows(idx[None, :], rt.r_s, rt.r_d)[0]),
        certificate=certificate,
        comparisons=comparisons,
    )


def select(rt: RateTable, k: int, omega: float) -> SelectionResult:
    """Find at most k relays whose subnetwork omega is >= (k/(k+1)) * omega.

    ``omega`` is the caller-supplied min-cut approximation of ``rt``
    (compute it once with ``omega_fast``). Threshold comparisons are
    non-strict (>= tau_j) with no epsilon. Candidate scans run in ascending
    relay index and take the first qualifying relay.

    Edge cases: when k >= n the iteration is skipped and all relays with a
    nonzero min-rate are returned (all relays when none qualify); when
    omega <= 0 the guarantee is vacuous and relay 1 is returned alone. An
    ``omega`` inconsistent with ``rt`` (too large, say) raises
    ``ValidationError``.

    Worst-case comparisons: 2*n*k - (k-1)*k/2 + 2*n.
    """
    k = _to_int("k", k, minimum=1)
    omega = _to_float("omega", omega, "nonnegative")
    n = rt.n
    r_s = rt.r_s
    r_d = rt.r_d
    comparisons = 0

    if k >= n:
        # whole network fits; zero-min-rate relays carry nothing and are dropped
        keep = np.flatnonzero(np.minimum(r_s, r_d) > 0.0) + 1
        gamma = tuple(keep.tolist()) if keep.size else tuple(range(1, n + 1))
        # charge: min of each pair, then its zero test
        return _selection(rt, gamma, None, 2 * n)

    if omega <= 0.0:
        return _selection(rt, (1,), None, comparisons)

    tau = [j * omega / (k + 1) for j in range(k + 1)]

    # Each scan below takes the first relay in index order that passes both
    # tests. It is charged as the scalar loop would be: one comparison per
    # relay visited up to that relay, plus one more for each that passed
    # the first test.

    # anchor: first relay with r_s >= tau_k and r_d >= tau_1
    hit_s = r_s >= tau[k]
    hit = hit_s & (r_d >= tau[1])
    p = int(hit.argmax())
    if not hit[p]:
        raise ValidationError(
            "no anchor relay clears the top threshold; omega is inconsistent "
            "with the rate table"
        )
    comparisons += (p + 1) + int(np.count_nonzero(hit_s[: p + 1]))

    comparisons += 1
    if r_d[p] >= tau[k]:
        return _selection(
            rt, (p + 1,), Certificate(anchor_bin=None, bins=()), comparisons
        )

    # bin the anchor's destination rate: tau_{k-a} <= r_d[p] < tau_{k-a+1}
    a = -1
    for cand_a in range(1, k):
        comparisons += 1
        if r_d[p] >= tau[k - cand_a]:
            a = cand_a
            break
    if a < 0:
        raise ValidationError("anchor bin not found; omega is inconsistent")

    free = np.ones(n, dtype=bool)
    free[p] = False
    collected: list[int] = []
    bins = [0]
    a_prev = 0
    terminal = False
    for _round in range(k - 1):
        # first free relay with r_s >= tau_{a_prev+1} and r_d >= tau_{k-a_prev}
        cand_s = free & (r_s >= tau[a_prev + 1])
        hit = cand_s & (r_d >= tau[k - a_prev])
        y = int(hit.argmax())
        if not hit[y]:
            raise ValidationError(
                "no qualifying relay at a selection round; omega is inconsistent "
                "with the rate table"
            )
        comparisons += int(np.count_nonzero(free[: y + 1])) + int(
            np.count_nonzero(cand_s[: y + 1])
        )
        free[y] = False
        collected.append(y + 1)
        comparisons += 1
        if r_s[y] >= tau[a]:
            terminal = True
            break
        # bin the new relay's source rate: tau_{a_r} <= r_s[y] < tau_{a_r+1}
        a_r = -1
        for cand in range(a_prev + 1, a):
            comparisons += 1
            if r_s[y] < tau[cand + 1]:
                a_r = cand
                break
        if a_r < 0:
            raise ValidationError("round bin not found; omega is inconsistent")
        bins.append(a_r)
        a_prev = a_r
    if not terminal:
        raise ValidationError(
            "selection failed to terminate within k-1 rounds; omega is "
            "inconsistent with the rate table"
        )

    gamma = tuple(sorted(collected + [p + 1]))
    return _selection(
        rt, gamma, Certificate(anchor_bin=a, bins=tuple(bins)), comparisons
    )


def verify_selection(
    rt: RateTable, sel: SelectionResult, k: int, omega: float
) -> bool:
    """Brute-force check that the selected subset carries (k/(k+1)) * omega.

    The subset's rows of ``rt`` go straight to the brute-force kernel, which
    takes the min over all 2**|gamma| cuts of the subnetwork: the rows were
    validated with ``rt``, so no new ``RateTable`` is built. The relay
    indices must be distinct integers in 1..n.
    """
    k = _to_int("k", k, minimum=1)
    gamma = sel.gamma
    if not gamma:
        raise ValidationError("selection has an empty relay set")
    if len(gamma) > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute-force verification limited to {BRUTE_FORCE_LIMIT} relays"
        )
    gamma = tuple(_to_int("selected relay index", i) for i in gamma)
    if any(i < 1 or i > rt.n for i in gamma):
        raise ValidationError("selected relay index out of range")
    if len(set(gamma)) != len(gamma):
        raise ValidationError(f"selected relay indices must be distinct, got {gamma}")
    idx = np.array(gamma, dtype=np.int64) - 1
    value, _ = kernels.brute_omega(rt.r_s[idx], rt.r_d[idx])
    return value >= (k / (k + 1)) * _to_float("omega", omega) - 1e-9


def omega_k_bruteforce(rt: RateTable, k: int) -> tuple[float, tuple[int, ...]]:
    """Exact max of omega over all k-relay subsets, with its first argmax.

    Ties resolve to the lexicographically smallest subset. Guarded at
    C(n, k) <= 10**6 enumerated subsets.
    """
    k = _to_int("k", k, minimum=1)
    n = rt.n
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
    values = kernels.omega_rows(members, rt.r_s, rt.r_d)
    best = int(np.argmax(values))
    return float(values[best]), tuple(int(i) + 1 for i in members[best])


def omega_k_table(rt: RateTable) -> tuple[float, ...]:
    """Max of omega over all k-relay subsets, for every k in 1..n.

    Entry k-1 equals ``omega_k_bruteforce(rt, k)[0]`` under ``==``, but all
    n entries come from one pass over the subset lattice instead of n
    enumerations. The one difference is the sign of a zero: on a table of
    ``0.0`` and ``-0.0`` rates either zero may come out, because the
    lattice's min/max pick either one on a tie. Guarded at 2**n <= 10**6
    subsets.
    """
    if not isinstance(rt, RateTable):
        raise ValidationError(f"rt must be a RateTable, got {type(rt).__name__}")
    n = rt.n
    if (1 << n) > SUBSET_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"2**{n} subsets exceeds the enumeration limit {SUBSET_ENUMERATION_LIMIT}"
        )
    order = rt.r_s.argsort(kind="stable")
    best = kernels.omega_by_size(rt.r_s[order], rt.r_d[order])
    return tuple(best[1:].tolist())


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
    if k + 1 > np.iinfo(np.intp).max // 8:  # bytes of one float64 array
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
    model only admits k = 1, so its table has a single row. Every entry is
    bit-identical to ``guarantee(c_bar_approx, k, n, gap_model).lower_bound``.
    """
    n = _to_int("n", n, minimum=1)
    _check_gap_model(gap_model)
    c_bar_approx = _to_float("c_bar_approx", c_bar_approx, "nonnegative")
    gap = gap_constant(n)
    ks = (1,) if gap_model == "routing" else range(1, n + 1)
    bounds = [_bound(c_bar_approx, k, gap, gap_model)[0] for k in ks]
    best_k = bounds.index(max(bounds)) + 1  # the smallest maximizing k
    baseline = max(0.0, c_bar_approx - 1.3 * n)
    return TradeoffReport(
        entries=tuple(zip(ks, bounds)),
        best_k=best_k,
        baseline=baseline,
        gap_model=gap_model,
    )
