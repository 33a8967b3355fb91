import decimal
import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import (
    Cut,
    RateTable,
    SizeLimitError,
    cut_value,
    kernels,
    omega_bruteforce,
    omega_fast,
    omega_k_bruteforce,
    omega_k_table,
    sandwich,
    tight_config,
)

KERNELS = ("brute_omega", "omega_sorted_scan", "omega_rows", "sandwich_scan", "af_rate_batch")


def test_backend_is_reported():
    # perfbench/report.py records the two constants on every run and
    # perfbench/tracing.py wraps the five kernels by name
    assert kernels.BACKEND == "numpy"
    assert kernels.HAVE_NUMBA is False
    for name in KERNELS:
        assert callable(getattr(kernels, name))


def test_numpy_warnings_are_errors_in_the_suite():
    # pyproject.toml turns RuntimeWarning into an error for the whole suite,
    # which the no-warning tests of the kernels and their callers rely on
    with pytest.raises(RuntimeWarning):
        np.float64(1e308) * 10.0


def test_subset_max_matches_definition():
    rng = np.random.default_rng(281)
    for n in range(7):
        x = rng.integers(0, 5, n).astype(float)
        table = kernels.subset_max(x)
        assert table.shape == (1 << n,)
        sums = kernels.subset_max(x, np.add)
        for mask in range(1 << n):
            members = [x[i] for i in range(n) if mask >> i & 1]
            assert table[mask] == max(members, default=0.0)
            assert sums[mask] == sum(members, 0.0)



def old_subset_max(x):
    """The one-table doubling loop ``subset_max`` ran before it took rows."""
    table = np.zeros(1)
    for xi in x:
        table = np.concatenate([table, np.maximum(table, xi)])
    return table


def old_sandwich_scan(ts2, td2, td):
    """The three-array loop ``sandwich_scan`` ran before its tables were fused."""
    sum_s2 = np.zeros(1)
    sum_d2 = np.zeros(1)
    sum_d = np.zeros(1)
    for i in range(ts2.shape[0]):
        sum_s2 = np.concatenate([sum_s2, sum_s2 + ts2[i]])
        sum_d2 = np.concatenate([sum_d2, sum_d2 + td2[i]])
        sum_d = np.concatenate([sum_d, sum_d + td[i]])
    src = np.log2(1.0 + sum_s2[::-1])
    lower = src + np.log2(1.0 + sum_d2)
    upper = src + np.log2(1.0 + sum_d * sum_d)
    return float(lower.min()), float(upper.min())


def rate_rows(seed):
    """Rate pairs for n <= 12: continuous, tied small integers, signed zeros."""
    rng = np.random.default_rng(seed)
    for i in range(120):
        n = 1 + i % 12
        kind = i % 3
        if kind == 0:
            yield rng.exponential(2.0, n), rng.exponential(2.0, n)
        elif kind == 1:
            yield rng.integers(0, 3, n).astype(float), rng.integers(0, 3, n).astype(float)
        else:
            yield rng.choice([0.0, -0.0, 1.0], n), rng.choice([0.0, -0.0, 0.5], n)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_fused_subset_max_is_bit_exact():
    for r_s, r_d in rate_rows(283):
        both = kernels.subset_max(np.array((r_d, r_s)))
        assert same_bits(both[0], old_subset_max(r_d))
        assert same_bits(both[1], old_subset_max(r_s))
        assert same_bits(kernels.subset_max(r_s), old_subset_max(r_s))


def old_omega_by_size(s_sorted, d_sorted):
    """The 2**n lattice pass ``omega_k_table`` ran before the chain recurrence.

    Takes the rates sorted by r_s and returns the best omega of each subset
    size 0..n.
    """
    n = s_sorted.shape[0]
    max_d = old_subset_max(d_sorted)
    omega = max_d.copy()
    for j in range(n):
        # the subsets holding relay j, indexed by their relays above j
        held = omega.reshape(-1, 2, 1 << j)[:, 1, :]
        above = max_d[:: 1 << (j + 1)]
        np.minimum(held, (s_sorted[j] + above)[:, None], out=held)
    best = np.zeros(n + 1)
    np.maximum.at(best, np.bitwise_count(np.arange(1 << n)), omega)
    return best


def test_best_chains_is_bit_exact_against_the_lattice_pass():
    rng = np.random.default_rng(289)
    for n in range(13, 20):
        tied = rng.integers(0, 3, (2, n)).astype(float)
        zeros = rng.choice([0.0, 0.5, 1023.0], (2, n))
        for r_s, r_d in (rng.exponential(2.0, (2, n)), tied, zeros):
            order = np.argsort(r_s, kind="stable")
            want = old_omega_by_size(r_s[order], r_d[order])[1:]
            assert same_bits(kernels.best_chains(r_s, r_d), want), n


# widths 1 to 3 split the tables of rate_rows into up to 2**11 tiles
TILE_WIDTHS = (1, 2, 3, kernels._TILE_BITS)


def assert_brute_omega_is_bit_exact(r_s, r_d):
    values = old_subset_max(r_d) + old_subset_max(r_s)[::-1]
    idx = int(np.argmin(values))
    (value,), (mask,) = kernels.brute_omega(r_s[None], r_d[None])
    assert mask == idx
    assert same_bits(value, values[idx])


def assert_sandwich_scan_is_bit_exact(r_s, r_d):
    ts2 = np.expm1(np.abs(r_s) * np.log(2.0))
    td2 = np.expm1(np.abs(r_d) * np.log(2.0))
    td = np.sqrt(td2)
    assert same_bits(kernels.sandwich_scan(ts2, td2, td), old_sandwich_scan(ts2, td2, td))


def test_fused_brute_omega_is_bit_exact(monkeypatch):
    for bits in TILE_WIDTHS:
        monkeypatch.setattr(kernels, "_TILE_BITS", bits)
        for r_s, r_d in rate_rows(284):
            assert_brute_omega_is_bit_exact(r_s, r_d)


def test_fused_sandwich_scan_is_bit_exact(monkeypatch):
    for bits in TILE_WIDTHS:
        monkeypatch.setattr(kernels, "_TILE_BITS", bits)
        for r_s, r_d in rate_rows(285):
            assert_sandwich_scan_is_bit_exact(r_s, r_d)


def test_tiled_kernels_are_bit_exact_past_one_tile():
    # n = 18 spans 4 tiles at the default width
    assert kernels._TILE_BITS == 16
    rng = np.random.default_rng(287)
    tied = rng.integers(0, 3, (2, 18)).astype(float)
    for r_s, r_d in (rng.exponential(2.0, (2, 18)), tied):
        assert_brute_omega_is_bit_exact(r_s, r_d)
        assert_sandwich_scan_is_bit_exact(r_s, r_d)


def test_brute_force_working_memory_stays_within_a_few_tiles():
    # whole 2**20 tables took 24 MB (omega) and 32 MB (sandwich), and a
    # tile per relay past the 14th took 2.8 and 4.1 MB at n = 24. One tile
    # buffer serves the walk at any n: only the outer table grows, by at
    # most 3 blocks of 2**(24 - _TILE_BITS) floats from n = 20 to 24
    rng = np.random.default_rng(288)
    tables = [RateTable(*rng.exponential(2.0, (2, n))) for n in (20, 24)]
    for oracle in (omega_bruteforce, sandwich):
        peaks = []
        for rt in tables:
            tracemalloc.start()
            try:
                oracle(rt)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3 * 2**20, (oracle.__name__, peaks)
        growth = 3 * 8 << 24 - kernels._TILE_BITS
        assert peaks[1] <= peaks[0] + growth, (oracle.__name__, peaks)


def test_lattice_walk_is_the_one_size_guard():
    # every 2**n cut walk goes through _cut_tiles, which refuses n > 24
    # before it allocates anything
    assert kernels.BRUTE_FORCE_LIMIT == 24
    message = "brute force over 2**25 cuts refused (limit n <= 24)"
    ones = np.ones(25)
    with pytest.raises(SizeLimitError, match=re.escape(message)):
        kernels.brute_omega(ones[None], ones[None])
    with pytest.raises(SizeLimitError, match=re.escape(message)):
        kernels.sandwich_scan(ones, ones, ones)
    assert kernels.brute_omega(np.ones((1, 24)), np.ones((1, 24)))[0] == 1.0


# tied and zero rates, and rates at and near the 1023-bit cap
TIE_RATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1022.0, 1023.0]),
    st.floats(0.0, 1023.0),
    st.floats(1022.0, 1023.0),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(TIE_RATES, TIE_RATES), min_size=1, max_size=10))
def test_tiled_bruteforce_matches_omega_fast(rates):
    r_s, r_d = zip(*rates)
    rt = RateTable(r_s, r_d)
    with mock.patch.object(kernels, "_TILE_BITS", 2):  # up to 2**8 tiles
        brute = omega_bruteforce(rt)
    fast = omega_fast(rt)
    assert same_bits(brute.value, fast.value)
    assert brute.argmin_cut == fast.argmin_cut
    assert cut_value(rt, brute.argmin_cut) == fast.value


def test_single_row_omega_matches_sorted_scan_bit_for_bit():
    # omega_rows, behind the oracle omega_k_bruteforce, and the sorted scan
    # behind omega_fast and select's omega_gamma agree on a single row; on
    # ties between 0.0 and -0.0 both keep the largest minimizing candidate
    rng = np.random.default_rng(286)
    zeros = [rng.choice([0.0, -0.0], (2, n)) for n in range(1, 13) for _ in range(30)]
    for r_s, r_d in list(rate_rows(286)) + zeros:
        order = np.argsort(r_s, kind="stable")
        want, _ = kernels.omega_sorted_scan(r_s[order], r_d[order])
        assert same_bits(kernels.omega_rows(r_s[None], r_d[None])[0], want)


def suffix_cut_candidates(s_sorted, d_sorted):
    """The n + 1 candidates of one row sorted by r_s, on Python floats,
    which never warn: candidate m is max r_d over relays m .. n-1 plus r_s
    of relay m-1, the first term absent at m = n and the second at m = 0."""
    s, d = s_sorted.tolist(), d_sorted.tolist()
    n = len(s)
    return [max(d)] + [max(d[m:]) + s[m - 1] for m in range(1, n)] + [s[n - 1]]


def test_sorted_scan_matches_its_definition_on_rows_and_stacks():
    # the value and m at the largest minimizing candidate, on rows of ties
    # between 0.0 and -0.0 and rows whose sums pass the float64 maximum, one
    # at a time and stacked (m, n) and (2, 3, n); each stacked row gives the
    # value and m of its own call, without a warning
    rng = np.random.default_rng(287)
    top = 1.7976931348623157e308
    pools = ([0.0, -0.0], [0.0, -0.0, 0.5, 1.0], [0.0, 1.0, 5e307, 1e308, top])
    rows = [rng.choice(pool, (2, 6, n)) for n in range(1, 10) for pool in pools]
    rows += [np.array(row)[:, None] for row in rate_rows(287)]
    # only the last row of this stack sums past the float64 maximum
    rows.append(np.array([[[1.0, 2.0], [1e308, top]], [[2.0, 1.0], [1.0, top]]]))
    negative_zeros = overflows = 0
    for s_sorted, d_sorted in rows:
        s_sorted.sort(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, ms = kernels.omega_sorted_scan(s_sorted, d_sorted)
            for i in range(len(s_sorted)):
                value, m = kernels.omega_sorted_scan(s_sorted[i], d_sorted[i])
                cand = suffix_cut_candidates(s_sorted[i], d_sorted[i])
                want_m = max(j for j, c in enumerate(cand) if c == min(cand))
                assert same_bits(value, cand[want_m]) and m == want_m
                assert same_bits(values[i], value) and ms[i] == m
                negative_zeros += math.copysign(1.0, value) < 0.0
                overflows += math.inf in cand[1:-1]
            if len(s_sorted) == 6:
                cube, cube_ms = kernels.omega_sorted_scan(
                    s_sorted.reshape(2, 3, -1), d_sorted.reshape(2, 3, -1)
                )
                assert same_bits(cube, values.reshape(2, 3))
                assert (cube_ms == ms.reshape(2, 3)).all()
    assert negative_zeros and overflows


def test_min_cut_kernels_past_the_float_range():
    # cut and chain sums past the float64 range are inf, without a warning
    # (the suite turns RuntimeWarning into an error); the values are the
    # definitions': the min of cut_value over every cut, and the best
    # k-subset by enumeration
    rng = np.random.default_rng(317)
    pool = [0.0, 1.0, 5e307, 1e308, 1.7976931348623157e308]
    tables = [tight_config(2, 5e307), RateTable([1e308] * 2, [1e308] * 2)]
    tables += [RateTable(*rng.choice(pool, (2, int(n)))) for n in rng.integers(1, 9, 60)]
    for rt in tables:
        fast, brute = omega_fast(rt), omega_bruteforce(rt)
        with mock.patch.object(kernels, "_TILE_BITS", 2):  # several tiles
            tiled = omega_bruteforce(rt)
        cuts = [Cut.from_mask(mask) for mask in range(1 << rt.n)]
        assert same_bits(brute.value, min(cut_value(rt, c) for c in cuts))
        assert same_bits(fast.value, brute.value) and same_bits(tiled.value, brute.value)
        assert fast.argmin_cut == brute.argmin_cut == tiled.argmin_cut
        best = [omega_k_bruteforce(rt, k)[0] for k in range(1, rt.n + 1)]
        assert same_bits(omega_k_table(rt), best)
    assert omega_k_table(tables[0]) == (1e308, 1e308, 1.5e308)


def decimal_sandwich(ts2, td2, td):
    """The bracketing mins by definition: every cut's sums exact in decimal,
    its logs to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        ts2, td2, td = ([Decimal(x) for x in arr.tolist()] for arr in (ts2, td2, td))
        n = len(ts2)
        lower = upper = None
        for mask in range(1 << n):
            dest = [i for i in range(n) if mask >> i & 1]
            src = [i for i in range(n) if not mask >> i & 1]
            s = (1 + sum((ts2[i] for i in src), Decimal(0))).ln() / ln2
            d2 = (1 + sum((td2[i] for i in dest), Decimal(0))).ln() / ln2
            d = (1 + sum((td[i] for i in dest), Decimal(0)) ** 2).ln() / ln2
            lower = s + d2 if lower is None else min(lower, s + d2)
            upper = s + d if upper is None else min(upper, s + d)
        return float(lower), float(upper)


def linear_snrs(r_s, r_d):
    ts2 = np.expm1(np.asarray(r_s) * np.log(2.0))
    td2 = np.expm1(np.asarray(r_d) * np.log(2.0))
    return ts2, td2, np.sqrt(td2)


def test_sandwich_scan_past_the_float_range(monkeypatch):
    # side sums of 2**r - 1 past the float64 maximum: the brackets are the
    # definition's, without a warning (the suite turns RuntimeWarning into an
    # error), at the default tile width and at 2-bit tiles
    rng = np.random.default_rng(331)
    tables = [([1023.0, 1023.0], [1023.0, 1023.0]), ([1023.0] * 3, [0.0, 1.0, 2.0])]
    tables += [rng.uniform(1015.0, 1023.0, (2, int(n))) for n in rng.integers(1, 9, 40)]
    overflowed = 0
    for r_s, r_d in tables:
        ts2, td2, td = linear_snrs(r_s, r_d)
        total_td = sum(td.tolist())  # Python floats never warn
        sums = sum(ts2.tolist()), sum(td2.tolist()), total_td * total_td
        overflowed += max(sums) == math.inf
        want = decimal_sandwich(ts2, td2, td)
        for bits in (kernels._TILE_BITS, 2):
            monkeypatch.setattr(kernels, "_TILE_BITS", bits)
            got = kernels.sandwich_scan(ts2, td2, td)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert 10 <= overflowed <= len(tables) - 10  # both paths, against one definition
    top = linear_snrs([1023.0] * 2, [1023.0] * 2)
    assert kernels.sandwich_scan(*top) == (1024.0, 1024.0)


def test_sandwich_brackets_omega_past_the_float_range():
    rng = np.random.default_rng(332)
    for n in rng.integers(1, 9, 40):
        rt = RateTable(*rng.uniform(1015.0, 1023.0, (2, int(n))))
        sw = sandwich(rt)
        assert sw.omega <= sw.lower <= sw.upper <= sw.omega + sw.gap


def stacked_rows(seed, widths):
    """One stack per width: continuous rows, and tied small integers, whose
    equal cut values put the first-minimal mask in a later tile."""
    rng = np.random.default_rng(seed)
    for w in widths:
        m = int(rng.integers(1, 6))
        yield rng.exponential(2.0, (2, m, w))
        yield rng.integers(0, 3, (2, m, w)).astype(float)


def test_stacked_brute_omega_matches_per_row_calls(monkeypatch):
    # n = 17 and 18 walk 2 and 4 tiles at the default width, and 2-bit
    # tiles walk up to 2**10 of them
    assert kernels._TILE_BITS == 16
    cases = [(kernels._TILE_BITS, range(1, 19)), (2, range(1, 13))]
    for bits, widths in cases:
        monkeypatch.setattr(kernels, "_TILE_BITS", bits)
        for r_s, r_d in stacked_rows(341, widths):
            values, masks = kernels.brute_omega(r_s, r_d)
            assert values.shape == masks.shape == (r_s.shape[0],)
            for i in range(r_s.shape[0]):
                (value,), (mask,) = kernels.brute_omega(r_s[i : i + 1], r_d[i : i + 1])
                assert same_bits(values[i], value) and masks[i] == mask
            if r_s.shape[1] <= 12:
                for i in range(r_s.shape[0]):
                    want = old_subset_max(r_d[i]) + old_subset_max(r_s[i])[::-1]
                    assert masks[i] == int(np.argmin(want))
                    assert same_bits(values[i], want.min())


def test_zero_padding_leaves_both_min_cut_kernels_unchanged():
    # rates are >= 0 and hold no -0.0, so a zero-rate relay changes no
    # maximum, and so no cut value; as the highest bits it keeps the mask
    for r_s, r_d in rate_rows(342):
        r_s, r_d = np.abs(r_s)[None], np.abs(r_d)[None]  # no -0.0
        (value,), (mask,) = kernels.brute_omega(r_s, r_d)
        (row,) = kernels.omega_rows(r_s, r_d)
        for pad in (1, 3):
            zeros = np.zeros((1, pad))
            s, d = np.hstack((r_s, zeros)), np.hstack((r_d, zeros))
            (padded,), (padded_mask,) = kernels.brute_omega(s, d)
            assert same_bits(padded, value) and padded_mask == mask
            assert same_bits(kernels.omega_rows(s, d)[0], row)
            assert same_bits(row, value)


def test_stacked_rows_whose_sums_overflow_run_without_a_warning():
    # one row of the stack sums past the float64 range, the others do not:
    # the sums run under errstate for the whole stack, and each value is
    # the definition's
    top = 1.7976931348623157e308
    r_s = np.array([[1e308, 1e308, 0.0], [1.0, 2.0, 0.0], [top, 5e307, 1.0]])
    r_d = np.array([[1e308, 1e308, 0.0], [2.0, 1.0, 3.0], [5e307, top, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, masks = kernels.brute_omega(r_s, r_d)
        rows = kernels.omega_rows(r_s, r_d)
    overflowed = []
    for i in range(3):
        rt = RateTable(r_s[i], r_d[i])
        cut_values = [cut_value(rt, Cut.from_mask(mask)) for mask in range(8)]
        assert same_bits(values[i], min(cut_values))
        assert same_bits(rows[i], min(cut_values))
        assert cut_values.index(min(cut_values)) == masks[i]
        overflowed.append(math.inf in cut_values)
    assert overflowed == [True, False, True]


def tile_walk_order(n):
    """The base mask of each tile of a 2**n lattice walk, in walk order."""
    rows = np.zeros((2, 1, n))
    return [base for base, _, _ in kernels._cut_tiles(rows, 1, np.maximum)]


def test_brute_omega_ties_across_tiles_keep_the_least_mask():
    # n = 17 and 18 walk 2 and 4 tiles in increasing order, the tile of mask
    # m being m mod 2**a. A row's minimal cuts are closed under intersection
    # (monotone rounding of max r_d + max r_s), so the least one, their
    # common part, lies in the first tile of the walk to hold a minimum: a
    # tie with a later tile keeps the earlier one. Rows whose minimal cuts
    # spread over several tiles, of zeros of both signs too, and rows of 12
    # and 13 rates padded with zero-rate relays share the stack; each row is
    # checked against every cut value of its own, unpadded lattice
    assert kernels._TILE_BITS == 16
    rng = np.random.default_rng(343)
    spread = signed = 0
    for n in (17, 18):
        a = n - kernels._TILE_BITS
        assert tile_walk_order(n) == list(range(1 << a))
        rows = [np.ones((2, n)), rng.integers(0, 2, (2, n)).astype(float)]
        rows += [rng.choice([0.0, -0.0], (2, n)) for _ in range(2)]
        rows += [rng.choice([0.0, -0.0, 1.0], (2, n))]
        widths = [n] * len(rows) + [12, 13]
        rows += [rng.integers(0, 3, (2, w)).astype(float) for w in (12, 13)]
        r_s, r_d = np.zeros((2, len(rows), n))
        for i, row in enumerate(rows):
            r_s[i, : row.shape[1]], r_d[i, : row.shape[1]] = row
        values, masks = kernels.brute_omega(r_s, r_d)
        for i, w in enumerate(widths):
            own = old_subset_max(r_d[i, :w]) + old_subset_max(r_s[i, :w])[::-1]
            first = int(np.argmin(own))
            assert masks[i] == first and same_bits(values[i], own[first])
            # the minimal cuts of the walked row, padding relays included
            cuts = old_subset_max(r_d[i]) + old_subset_max(r_s[i])[::-1]
            minimal = np.flatnonzero(cuts == cuts[first])
            assert np.bitwise_and.reduce(minimal) == first
            spread += len(set((minimal % (1 << a)).tolist())) > 1
            signed += len({math.copysign(1.0, c) for c in cuts[minimal]}) == 2
    assert spread and signed


def test_sorted_scan_of_one_row_is_its_row_of_a_stack():
    # ties between 0.0 and -0.0, where the largest minimizing m and a
    # smaller one hold zeros of both signs, and tied integers; each row of a
    # stack, one row of a (1, n) stack and the row alone give the same value
    # and m, all the definition's, and omega_rows of the rows padded with
    # zero-rate relays gives the value of the unpadded row
    rng = np.random.default_rng(344)
    signed = 0
    for n in range(1, 9):
        pools = ([0.0, -0.0], [0.0, -0.0, 1.0], [1.0, 2.0])
        for pool in pools:
            s_sorted, d_sorted = rng.choice(pool, (2, 8, n))
            s_sorted.sort(axis=1)
            values, ms = kernels.omega_sorted_scan(s_sorted, d_sorted)
            for i in range(8):
                cand = suffix_cut_candidates(s_sorted[i], d_sorted[i])
                want_m = max(j for j, c in enumerate(cand) if c == min(cand))
                value, m = kernels.omega_sorted_scan(s_sorted[i], d_sorted[i])
                (one,), (one_m,) = kernels.omega_sorted_scan(
                    s_sorted[i : i + 1], d_sorted[i : i + 1]
                )
                assert isinstance(value, np.float64) and isinstance(m, np.integer)
                assert m == one_m == ms[i] == want_m
                for got in (value, one, values[i]):
                    assert same_bits(got, cand[want_m])
                signed += len({math.copysign(1.0, c) for c in cand if c == 0.0}) == 2
            if pool[0] == 1.0:
                pad = np.zeros((8, 3))
                s_padded, d_padded = np.hstack((s_sorted, pad)), np.hstack((d_sorted, pad))
                assert same_bits(kernels.omega_rows(s_padded, d_padded), values)
    assert signed


def test_sandwich_scan_overflow_test_adds_in_index_order():
    # in index order MAX + 2**969 rounds back to MAX twice, so no side sum
    # overflows and the bracket is the unscaled expression; the exact sum,
    # MAX + 2**970, is half an ulp past MAX and rounds to inf, so a
    # compensated total (``sum`` from Python 3.12) would scale the lattice
    top = 1.7976931348623157e308
    ts2 = np.array([top, 2.0**969, 2.0**969])
    assert sum(map(Fraction, ts2.tolist())) == Fraction(top) + 2**970
    for td2 in (np.ones(3), np.array([4.0, 0.0, 9.0])):
        td = np.sqrt(td2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(
                kernels.sandwich_scan(ts2, td2, td), old_sandwich_scan(ts2, td2, td)
            )
