import math
from itertools import combinations

import numpy as np
import pytest

from diamondnet import (
    Cut,
    Network,
    RateTable,
    SizeLimitError,
    ValidationError,
    cut_value,
    gap_constant,
    omega_bruteforce,
    omega_fast,
    random_network,
    rate_table,
    sandwich,
    tight_config,
)
from diamondnet.verify import trial_seed


def enum_omega(rt):
    """Independent oracle: minimum cut value by direct subset enumeration."""
    n = rt.n
    best = None
    best_cut = None
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            v = cut_value(rt, Cut(combo))
            if best is None or v < best:
                best = v
                best_cut = combo
    return best, best_cut


def random_rt(i, master=101, nmax=10):
    s = trial_seed(master, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(1, nmax + 1))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
    return rate_table(random_network(n, snr, s, dist))


class TestCutValue:
    def test_staircase_interior_cut(self):
        rt = tight_config(2, 1.0)  # r_s=[1,2,3], r_d=[3,2,1]
        assert cut_value(rt, Cut([3])) == 3.0
        assert cut_value(rt, Cut([2])) == 5.0

    def test_empty_cut_is_pure_broadcast(self):
        rt = tight_config(2, 1.0)
        assert cut_value(rt, Cut([])) == 3.0  # max r_s

    def test_full_cut_is_pure_multiple_access(self):
        rt = tight_config(2, 1.0)
        assert cut_value(rt, Cut([1, 2, 3])) == 3.0  # max r_d

    def test_rejects_out_of_range_member(self):
        rt = tight_config(2, 1.0)
        with pytest.raises(ValidationError):
            cut_value(rt, Cut([4]))

    def test_cut_mask_round_trip(self):
        cut = Cut([1, 3, 6])
        assert cut.mask == 0b100101
        assert Cut.from_mask(cut.mask).members == cut.members


class TestCutMembers:
    @pytest.mark.parametrize(
        "member,shown",
        [(1.5, "1.5"), (1.0, "1.0"), (True, "True"), ("1", "'1'"), (None, "None")],
    )
    def test_rejects_non_integer_members(self, member, shown):
        with pytest.raises(ValidationError) as exc:
            Cut([2, member])
        assert str(exc.value) == f"cut members must be integers, got {shown}"

    def test_rejects_numpy_float_member(self):
        with pytest.raises(ValidationError) as exc:
            Cut([np.float64(2.0)])
        assert str(exc.value) == "cut members must be integers, got np.float64(2.0)"

    def test_accepts_numpy_integers_and_iterators(self):
        cut = Cut(np.array([3, 1], dtype=np.int32))
        assert cut.members == frozenset({1, 3})
        assert all(type(i) is int for i in cut.members)
        assert Cut(i for i in (np.int64(2), 5)) == Cut([2, 5])

    def test_rejects_members_below_one(self):
        with pytest.raises(ValidationError) as exc:
            Cut([0, 2])
        assert str(exc.value) == "cut members are 1-based relay indices"


class TestOmegaBruteforce:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_staircase_value(self, k):
        assert omega_bruteforce(tight_config(k, 1.0)).value == float(k + 1)

    def test_antisymmetric_two_relay(self):
        rt = RateTable([1.0, 2.0], [2.0, 1.0])
        res = omega_bruteforce(rt)
        assert res.value == 2.0
        # value 2 is attained by {}, {2} and {1,2}; the smallest bitmask wins
        assert res.argmin_cut.members == frozenset()
        oracle_value, _ = enum_omega(rt)
        assert res.value == oracle_value

    def test_single_relay_is_min_of_pair(self):
        rt = RateTable([3.25], [1.5])
        assert omega_bruteforce(rt).value == 1.5

    def test_matches_enumeration_oracle(self):
        for i in range(60):
            rt = random_rt(i, master=101, nmax=8)
            res = omega_bruteforce(rt)
            oracle_value, _ = enum_omega(rt)
            assert res.value == oracle_value
            assert cut_value(rt, res.argmin_cut) == res.value

    def test_argmin_has_smallest_bitmask(self):
        for i in range(40):
            rt = random_rt(i, master=103, nmax=7)
            res = omega_bruteforce(rt)
            masks = [
                Cut(c).mask
                for size in range(rt.n + 1)
                for c in combinations(range(1, rt.n + 1), size)
                if cut_value(rt, Cut(c)) == res.value
            ]
            assert res.argmin_cut.mask == min(masks)

    def test_size_guard(self):
        rt = RateTable(np.ones(25), np.ones(25))
        with pytest.raises(SizeLimitError):
            omega_bruteforce(rt)


class TestOmegaFast:
    def test_staircase_k3(self):
        assert omega_fast(RateTable([1, 2, 3, 4], [4, 3, 2, 1])).value == 4.0

    def test_duplicate_rates(self):
        res = omega_fast(RateTable([5.0, 1.0], [5.0, 1.0]))
        assert res.value == 5.0
        assert res.argmin_cut.members == frozenset()  # mask 0 among the ties

    def test_equals_bruteforce_exactly(self):
        for i in range(300):
            rt = random_rt(i, master=107, nmax=12)
            fast = omega_fast(rt)
            brute = omega_bruteforce(rt)
            assert fast.value == brute.value
            assert fast.argmin_cut.members == brute.argmin_cut.members

    def test_suffix_cut_dominance(self):
        # any cut is dominated by the suffix cut keeping the top-r_s relay
        # of its source side, in the order sorted by r_s ascending
        for i in range(40):
            rt = random_rt(i, master=109, nmax=7)
            n = rt.n
            order = np.argsort(rt.r_s, kind="stable")
            for size in range(n + 1):
                for combo in combinations(range(1, n + 1), size):
                    complement = set(range(1, n + 1)) - set(combo)
                    if complement:
                        positions = [int(np.where(order == i0 - 1)[0][0]) for i0 in complement]
                        m = max(positions) + 1
                    else:
                        m = 0
                    suffix_cut = Cut(int(j) + 1 for j in order[m:])
                    assert cut_value(rt, suffix_cut) <= cut_value(rt, Cut(combo))

    def test_monotone_under_added_relay(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            r_s = rng.uniform(0, 10, n)
            r_d = rng.uniform(0, 10, n)
            before = omega_fast(RateTable(r_s, r_d)).value
            after = omega_fast(
                RateTable(
                    np.append(r_s, rng.uniform(0, 10)),
                    np.append(r_d, rng.uniform(0, 10)),
                )
            ).value
            assert after >= before

    def test_scale_equivariance(self):
        # powers of two keep float ties exact, so the argmin is preserved
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            rt = RateTable(rng.uniform(0, 10, n), rng.uniform(0, 10, n))
            base = omega_fast(rt)
            for c in (0.5, 2.0, 8.0):
                scaled = omega_fast(RateTable(rt.r_s * c, rt.r_d * c))
                assert scaled.value == base.value * c
                assert scaled.argmin_cut.members == base.argmin_cut.members

    def test_comparison_counter_bound(self):
        for n in list(range(1, 65)) + [100, 1000, 10**4]:
            rng = np.random.default_rng(n)
            rt = RateTable(rng.uniform(0, 10, n), rng.uniform(0, 10, n))
            res = omega_fast(rt)
            ceil_log = (n - 1).bit_length() if n > 1 else 0
            assert res.comparisons <= 2 * n * ceil_log + 3 * n + 2


class TestGapConstant:
    def test_small_values(self):
        assert gap_constant(1) == 0.0
        assert gap_constant(2) == 2.0
        assert gap_constant(3) == pytest.approx(2.0 * math.log2(3.0), rel=1e-15)

    def test_nondecreasing(self):
        values = [gap_constant(n) for n in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            gap_constant(0)
        with pytest.raises(ValidationError):
            gap_constant(2.5)


class TestSandwich:
    def test_single_relay_collapses(self):
        sw = sandwich(RateTable([1.0], [1.0]))
        assert sw.omega == 1.0
        assert sw.lower == pytest.approx(1.0, abs=1e-12)
        assert sw.upper == pytest.approx(1.0, abs=1e-12)
        assert sw.gap == 0.0

    def test_two_stage_symmetric_instance(self):
        net = Network(1.0, [4.0, 4.0], [16.0, 16.0])
        sw = sandwich(rate_table(net))
        assert sw.omega == pytest.approx(math.log2(17.0), abs=1e-12)
        assert sw.upper == pytest.approx(math.log2(33.0), abs=1e-9)

    def test_chain_on_random_networks(self):
        for i in range(200):
            rt = random_rt(i, master=113, nmax=10)
            sw = sandwich(rt)
            assert sw.omega <= sw.lower + 1e-9
            assert sw.lower <= sw.upper + 1e-9
            assert sw.upper <= sw.omega + sw.gap + 1e-9

    def test_matches_definition_over_every_cut(self):
        for i in range(100):
            rt = random_rt(i, master=127, nmax=10)
            ts2 = [math.expm1(r * math.log(2.0)) for r in rt.r_s.tolist()]
            td2 = [math.expm1(r * math.log(2.0)) for r in rt.r_d.tolist()]
            lower = upper = math.inf
            for size in range(rt.n + 1):
                for combo in combinations(range(1, rt.n + 1), size):
                    dest = Cut(combo).members
                    src = math.log2(1.0 + sum(t for j, t in enumerate(ts2, 1) if j not in dest))
                    dst2 = sum(t for j, t in enumerate(td2, 1) if j in dest)
                    dst = sum(math.sqrt(t) for j, t in enumerate(td2, 1) if j in dest)
                    lower = min(lower, src + math.log2(1.0 + dst2))
                    upper = min(upper, src + math.log2(1.0 + dst * dst))
            sw = sandwich(rt)
            assert sw.lower == pytest.approx(lower, rel=1e-12)
            assert sw.upper == pytest.approx(upper, rel=1e-12)

    def test_size_guard(self):
        rt = RateTable(np.ones(25), np.ones(25))
        with pytest.raises(SizeLimitError):
            sandwich(rt)
