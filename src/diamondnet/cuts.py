"""Cuts, the min-cut capacity approximation omega, and bracketing bounds.

A cut places a subset of relays on the destination side; its value is the
best destination-side rate plus the best source-side rate. ``omega`` is
the minimum cut value over all 2**n cuts; it tracks the information-
theoretic cut-set bound within the additive constant ``gap_constant(n)``.
``omega_bruteforce`` is the definitional oracle, ``omega_fast`` the
O(n log n) production path; the two are bit-identical by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SizeLimitError, ValidationError
from .model import RateTable, _linear_snrs, _to_int

BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True, slots=True)
class Cut:
    """A destination-side relay subset, 1-based indices; may be empty or full.

    Members are integers (numpy integers too, ``bool`` not).
    """

    members: frozenset

    def __init__(self, members=()):
        members = tuple(members)
        if not set(map(type, members)) <= {int}:
            for i in members:
                if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                    raise ValidationError(f"cut members must be integers, got {i!r}")
            members = map(int, members)
        members = frozenset(members)
        if members and min(members) < 1:
            raise ValidationError("cut members are 1-based relay indices")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_mask(cls, mask: int) -> "Cut":
        """Cut whose bitmask is ``mask`` (bit i-1 set when relay i is a member)."""
        mask = _to_int("cut bitmask", mask, minimum=0)
        return cls(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    @property
    def mask(self) -> int:
        return sum(1 << (i - 1) for i in self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self):
        return len(self.members)


@dataclass(frozen=True, slots=True)
class OmegaResult:
    """omega value, the minimizing cut, and a comparison counter.

    The counter is the deterministic comparison charge of the algorithm's
    schedule (sorting, suffix maxima, scans), a function of n alone.
    """

    value: float
    argmin_cut: Cut
    comparisons: int


@dataclass(frozen=True, slots=True)
class SandwichReport:
    """omega and the bracketing bounds on the cut-set bound.

    Satisfies omega <= lower <= upper <= omega + gap, with
    gap = gap_constant(n).
    """

    omega: float
    lower: float
    upper: float
    gap: float


def cut_value(rt: RateTable, cut: Cut) -> float:
    """Value of ``cut``: max r_d over members plus max r_s over the rest.

    The maximum over an empty side is 0, so the empty cut is the pure
    broadcast cut (value max r_s) and the full cut the pure multiple-access
    cut (value max r_d).
    """
    n = rt.n
    members = cut.members
    if members and max(members) > n:
        raise ValidationError(f"cut member out of range for n={n}")
    if not members:
        return float(rt.r_s.max())
    if len(members) == n:
        return float(rt.r_d.max())
    sel = np.zeros(n, dtype=bool)
    sel[[i - 1 for i in members]] = True
    return float(rt.r_d[sel].max() + rt.r_s[~sel].max())


def gap_constant(n: int) -> float:
    """Beamforming-gap constant max(3*log2(n) - log2(27/4), 2*log2(n))."""
    l2n = math.log2(_to_int("n", n, minimum=1))
    return max(3.0 * l2n - math.log2(27.0 / 4.0), 2.0 * l2n)


def _merge_sort_charge(n: int) -> int:
    """Worst-case two-way-merge comparisons to sort n keys: n*ceil(lg n) - 2**ceil(lg n) + 1."""
    if n <= 1:
        return 0
    t = (n - 1).bit_length()
    return n * t - (1 << t) + 1


def _fast_schedule_charge(n: int) -> int:
    # sort + suffix-maximum build (n) + candidate scan (n)
    return _merge_sort_charge(n) + 2 * n


def omega_bruteforce(rt: RateTable) -> OmegaResult:
    """Definitional omega: minimum cut value over all 2**n cuts.

    The argmin is the minimizing cut with the numerically smallest bitmask.
    Guarded at n <= 24.
    """
    n = rt.n
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force over 2**{n} cuts refused (limit n <= {BRUTE_FORCE_LIMIT})"
        )
    value, mask = kernels.brute_omega(rt.r_s, rt.r_d)
    # charge: two subset-max tables (2**n - 1 each) + the min scan (2**n - 1)
    return OmegaResult(
        value=float(value),
        argmin_cut=Cut.from_mask(int(mask)),
        comparisons=3 * (1 << n) - 3,
    )


def omega_fast(rt: RateTable) -> OmegaResult:
    """omega in O(n log n): sort by r_s and scan the n+1 suffix cuts.

    After sorting by r_s ascending (ties by original index), every cut is
    dominated by the suffix cut that keeps the top r_s relay of its source
    side, so only suffix cuts need evaluation. Bit-identical to
    ``omega_bruteforce`` including the argmin cut.
    """
    order = rt.r_s.argsort(kind="stable")
    value, m_best = kernels.omega_sorted_scan(rt.r_s[order], rt.r_d[order])
    return OmegaResult(
        value=float(value),
        argmin_cut=Cut((order[int(m_best):] + 1).tolist()),
        comparisons=_fast_schedule_charge(rt.n),
    )


def sandwich(rt: RateTable) -> SandwichReport:
    """Bracket the cut-set bound: omega <= lower <= upper <= omega + gap.

    Per cut, with t**2 = 2**r - 1 the equivalent linear link SNRs:
    the lower form keeps full sums of t**2 on both sides, the upper form
    coherently combines the destination side as (sum t)**2. Minimized by
    brute force over cuts, so guarded at n <= 24.
    """
    n = rt.n
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force over 2**{n} cuts refused (limit n <= {BRUTE_FORCE_LIMIT})"
        )
    ts2, td2 = _linear_snrs(rt)
    td = np.sqrt(td2)
    lower, upper = kernels.sandwich_scan(ts2, td2, td)
    return SandwichReport(
        omega=omega_fast(rt).value,
        lower=float(lower),
        upper=float(upper),
        gap=gap_constant(n),
    )
