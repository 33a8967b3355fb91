"""Correct rounding, checked against an exact model.

The model works on exact rationals: every float64 is an integer multiple
of 2**-1074, so each rate is scaled to a Python int and a cut's value,
the best destination-side rate plus the best source-side rate, is an
exact int sum. omega* is the minimum over all 2**n cuts, and the best
k-subset value the maximum of omega* over the k-relay subsets. A
correctly rounded result is the float nearest the exact value, which
``float(Fraction(...))`` gives. ``omega_fast``, ``kernels.omega_rows`` and
``omega_k_table`` must return exactly that, on decimal, integer x 10**e,
subnormal-integer, binary-fraction, ``tight_config`` staircase and
near-1023 tables of up to 7 relays.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import RateTable, kernels, omega_fast, omega_k_table, tight_config

SCALE = 2**1074  # every float64 times SCALE is an integer


def exact_omegas(r_s, r_d):
    """omega* of every nonempty relay subset, keyed by its sorted 0-based
    indices, as an exact int in units of 2**-1074: the min over its cuts."""
    s = [int(Fraction(x) * SCALE) for x in r_s]
    d = [int(Fraction(x) * SCALE) for x in r_d]
    out = {}
    for size in range(1, len(s) + 1):
        for subset in combinations(range(len(s)), size):
            values = []
            for mask in range(1 << size):
                dest = [d[i] for j, i in enumerate(subset) if mask >> j & 1]
                src = [s[i] for j, i in enumerate(subset) if not mask >> j & 1]
                values.append(max(dest, default=0) + max(src, default=0))
            out[subset] = min(values)
    return out


def rounded(exact):
    """The float nearest the exact value ``exact`` * 2**-1074."""
    return float(Fraction(exact, SCALE))


def table(pairs, unit):
    return RateTable(*(np.array(pairs, dtype=np.float64).T * unit))


DIGIT_PAIRS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=7
)

# m * 2**-e with up to 53 significant bits, so sums of two round
BINARY = st.tuples(st.integers(0, 2**53 - 1), st.integers(0, 80)).map(
    lambda me: me[0] * 2.0 ** -me[1]
)

# staircase base rates whose multiples round, and one far below 1
STAIR_BASES = (0.1, 0.2, 1 / 3, 0.7, 3.3, 1e-5)

# rates within 64 of 1023, some past 1024, so that sums cross 2048
NEAR_1023 = st.tuples(st.integers(-64, 64), st.integers(0, 44)).map(
    lambda de: 1023 + de[0] * 2.0 ** -de[1]
)

# decimal, integer x 10**e, subnormal-integer, binary-fraction, staircase
# and near-1023 tables
TABLES = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=7
    ).map(lambda pairs: RateTable(*(np.array(pairs).T / 100.0))),
    st.tuples(DIGIT_PAIRS, st.integers(-310, 300)).map(
        lambda arg: table(arg[0], 10.0 ** arg[1])
    ),
    DIGIT_PAIRS.map(lambda pairs: table(pairs, 5e-324)),
    st.lists(st.tuples(BINARY, BINARY), min_size=1, max_size=7).map(
        lambda pairs: RateTable(*zip(*pairs))
    ),
    st.tuples(st.integers(1, 6), st.sampled_from(STAIR_BASES)).map(
        lambda arg: tight_config(*arg)
    ),
    st.lists(st.tuples(NEAR_1023, NEAR_1023), min_size=1, max_size=7).map(
        lambda pairs: RateTable(*zip(*pairs))
    ),
)


@settings(max_examples=450, deadline=None)
@given(TABLES)
def test_omega_fast_rows_and_best_k_are_correctly_rounded(rt):
    n = rt.n
    exact = exact_omegas(rt.r_s.tolist(), rt.r_d.tolist())
    assert omega_fast(rt).value == rounded(exact[tuple(range(n))])
    # every subset as one row of a stack, padded with zero-rate relays
    subsets = list(exact)
    r_s, r_d = np.zeros((2, len(subsets), n))
    for row, subset in enumerate(subsets):
        r_s[row, : len(subset)] = rt.r_s[list(subset)]
        r_d[row, : len(subset)] = rt.r_d[list(subset)]
    rows = kernels.omega_rows(r_s, r_d).tolist()
    assert rows == [rounded(exact[subset]) for subset in subsets]
    best = [max(v for c, v in exact.items() if len(c) == k) for k in range(1, n + 1)]
    assert omega_k_table(rt) == tuple(map(rounded, best))
