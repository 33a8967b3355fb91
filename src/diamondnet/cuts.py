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

import numpy as np

from . import kernels
from .errors import ValidationError
from .model import RateTable, _Value, _linear_snrs, _require, _to_int, _to_tuple


class Cut(_Value):
    """A destination-side relay subset, 1-based indices; may be empty or full.

    Members are integers (numpy integers too, ``bool`` not).
    """

    __slots__ = ("members",)

    def __init__(self, members=()):
        members = _to_tuple("cut members", members)
        if not set(map(type, members)) <= {int}:
            for i in members:
                if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                    raise ValidationError(f"cut members must be integers, got {i!r}")
            members = map(int, members)
        members = frozenset(members)
        if members and min(members) < 1:
            raise ValidationError("cut members are 1-based relay indices")
        super().__init__(members)

    @classmethod
    def from_mask(cls, mask: int) -> "Cut":
        """Cut whose bitmask is ``mask`` (bit i-1 set when relay i is a member).

        From the mask's binary digits, lowest first, in time linear in its
        bits.
        """
        digits = bin(_to_int("cut bitmask", mask, minimum=0))[:1:-1]
        return cls([i for i, digit in enumerate(digits, 1) if digit == "1"])

    @property
    def mask(self) -> int:
        """The bitmask of ``from_mask``, built in time linear in its bits."""
        members = self.members
        bits = np.zeros(max(members, default=0), dtype=bool)
        bits[np.fromiter(members, np.intp, len(members)) - 1] = True
        packed = np.packbits(bits, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self):
        return len(self.members)


class OmegaResult(_Value):
    """omega value, the minimizing cut, and a comparison count.

    ``omega_fast`` counts the comparisons of its scan, 2n - 1: n - 1 in the
    suffix maxima and n in the argmin over the n + 1 candidates; the
    comparisons of numpy's sort are not counted. ``omega_bruteforce``
    counts its lattice walk, 3 * 2**n - 3.
    """

    __slots__ = ("value", "argmin_cut", "comparisons")


class SandwichReport(_Value):
    """omega and the bracketing bounds on the cut-set bound.

    Satisfies omega <= lower <= upper <= omega + gap, with
    gap = gap_constant(n).
    """

    __slots__ = ("omega", "lower", "upper", "gap")


def cut_value(rt: RateTable, cut: Cut) -> float:
    """Value of ``cut``: max r_d over members plus max r_s over the rest.

    One expression for every cut, ``r_d.max(where=member, initial=0.0) +
    r_s.max(where=~member, initial=0.0)``, summed as Python floats, which
    never warn. The maximum over an empty side is 0, so the empty cut is the
    pure broadcast cut (value max r_s) and the full cut the pure
    multiple-access cut (value max r_d), bit for bit: a rate table holds no
    -0.0, and x + 0.0 is x for every x >= 0.0.
    """
    n = _require("rt", rt, RateTable).n
    members = _require("cut", cut, Cut).members
    if members and max(members) > n:
        raise ValidationError(f"cut member out of range for n={n}")
    member = np.zeros(n, dtype=bool)
    member[np.fromiter(members, np.intp, len(members)) - 1] = True
    d_max = np.maximum.reduce(rt.r_d, where=member, initial=0.0)
    return float(d_max) + float(np.maximum.reduce(rt.r_s, where=~member, initial=0.0))


def gap_constant(n: int) -> float:
    """Beamforming-gap constant max(3*log2(n) - log2(27/4), 2*log2(n))."""
    l2n = math.log2(_to_int("n", n, minimum=1))
    return max(3.0 * l2n - math.log2(27.0 / 4.0), 2.0 * l2n)


def omega_bruteforce(rt: RateTable) -> OmegaResult:
    """Definitional omega: minimum cut value over all 2**n cuts.

    The argmin is the minimizing cut with the numerically smallest bitmask.
    The cuts are walked in tiles, in working memory that does not grow with
    n; guarded at n <= 24.
    """
    n = _require("rt", rt, RateTable).n
    (value,), (mask,) = kernels.brute_omega(rt.r_s[None], rt.r_d[None])
    # two subset-max tables (2**n - 1 maxima each), then the min of 2**n cuts
    return OmegaResult(float(value), Cut.from_mask(int(mask)), 3 * (1 << n) - 3)


def _sorted_scan(r_s, r_d):
    """(stable r_s order, omega, m) of the rates (r_s, r_d): the min over
    the suffix cuts in that order, the m smallest-r_s relays on the source
    side of the first minimal one."""
    order = r_s.argsort(kind="stable")
    value, m = kernels.omega_sorted_scan(r_s[order], r_d[order])
    return order, float(value), int(m)


def omega_fast(rt: RateTable) -> OmegaResult:
    """omega in O(n log n): sort by r_s and scan the n+1 suffix cuts.

    After sorting by r_s ascending (ties by original index), every cut is
    dominated by the suffix cut that keeps the top r_s relay of its source
    side, so only suffix cuts need evaluation. Bit-identical to
    ``omega_bruteforce`` including the argmin cut.
    """
    order, value, m_best = _sorted_scan(_require("rt", rt, RateTable).r_s, rt.r_d)
    cut = Cut((order[m_best:] + 1).tolist())
    return OmegaResult(value, cut, 2 * rt.n - 1)


def sandwich(rt: RateTable) -> SandwichReport:
    """Bracket the cut-set bound: omega <= lower <= upper <= omega + gap.

    Per cut, with t**2 = 2**r - 1 the equivalent linear link SNRs:
    the lower form keeps full sums of t**2 on both sides, the upper form
    coherently combines the destination side as (sum t)**2. Minimized by
    brute force over cuts, walked in tiles, and guarded at n <= 24.
    """
    n = _require("rt", rt, RateTable).n
    ts2, td2 = _linear_snrs(rt)
    td = np.sqrt(td2)
    lower, upper = kernels.sandwich_scan(ts2, td2, td)
    omega = _sorted_scan(rt.r_s, rt.r_d)[1]
    return SandwichReport(omega, float(lower), float(upper), gap_constant(n))
