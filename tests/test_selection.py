import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import (
    Cut,
    DegenerateNetworkError,
    RateTable,
    SizeLimitError,
    ValidationError,
    cut_value,
    gap_constant,
    guarantee,
    hybrid_tradeoff,
    omega_bruteforce,
    omega_fast,
    omega_k_bruteforce,
    omega_k_ratio,
    omega_k_table,
    random_network,
    rate_table,
    select,
    strategy_gap,
    tight_config,
    verify_selection,
)
from diamondnet.selection import SUBSET_ENUMERATION_LIMIT
from diamondnet.verify import trial_seed


def enum_omega_of_subset(rt, members):
    """Independent oracle: min cut of the subnetwork by direct enumeration."""
    members = tuple(members)
    best = None
    for size in range(len(members) + 1):
        for inside in combinations(members, size):
            outside = [i for i in members if i not in inside]
            d = max((rt.r_d[i - 1] for i in inside), default=0.0)
            s = max((rt.r_s[i - 1] for i in outside), default=0.0)
            best = d + s if best is None else min(best, d + s)
    return best


def scalar_select(rt, k, omega):
    """The relay-by-relay scans ``select`` used to run, kept as its oracle.

    Returns (gamma, certificate, comparisons); certificate is
    (anchor_bin, bins) or None. Assumes 1 <= k < n and omega > 0.
    """
    n, r_s, r_d = rt.n, rt.r_s, rt.r_d
    comparisons = 0
    tau = [j * omega / (k + 1) for j in range(k + 1)]
    p = -1
    for i in range(n):
        comparisons += 1
        if r_s[i] >= tau[k]:
            comparisons += 1
            if r_d[i] >= tau[1]:
                p = i
                break
    if p < 0:
        raise ValidationError("no anchor")
    comparisons += 1
    if r_d[p] >= tau[k]:
        return (p + 1,), (None, ()), comparisons
    a = -1
    for cand_a in range(1, k):
        comparisons += 1
        if r_d[p] >= tau[k - cand_a]:
            a = cand_a
            break
    if a < 0:
        raise ValidationError("no anchor bin")
    used = [False] * n
    used[p] = True
    collected, bins, a_prev = [], [0], 0
    for _round in range(k - 1):
        y = -1
        for i in range(n):
            if used[i]:
                continue
            comparisons += 1
            if r_s[i] >= tau[a_prev + 1]:
                comparisons += 1
                if r_d[i] >= tau[k - a_prev]:
                    y = i
                    break
        if y < 0:
            raise ValidationError("no qualifying relay")
        used[y] = True
        collected.append(y + 1)
        comparisons += 1
        if r_s[y] >= tau[a]:
            return tuple(sorted(collected + [p + 1])), (a, tuple(bins)), comparisons
        a_r = -1
        for cand in range(a_prev + 1, a):
            comparisons += 1
            if r_s[y] < tau[cand + 1]:
                a_r = cand
                break
        if a_r < 0:
            raise ValidationError("no round bin")
        bins.append(a_r)
        a_prev = a_r
    raise ValidationError("no termination")


def random_rt(i, master, nmin=2, nmax=10):
    s = trial_seed(master, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(nmin, nmax + 1))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
    return rate_table(random_network(n, snr, s, dist))


class TestTightConfig:
    def test_k2_staircase(self):
        rt = tight_config(2, 1.0)
        assert rt.r_s.tolist() == [1.0, 2.0, 3.0]
        assert rt.r_d.tolist() == [3.0, 2.0, 1.0]

    def test_k1_is_antisymmetric_pair(self):
        rt = tight_config(1, 1.0)
        assert rt.r_s.tolist() == [1.0, 2.0]
        assert rt.r_d.tolist() == [2.0, 1.0]

    def test_k3_double_rate(self):
        rt = tight_config(3, 2.0)
        assert omega_fast(rt).value == 8.0
        value, _ = omega_k_bruteforce(rt, 3)
        assert value == 6.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            tight_config(0)
        with pytest.raises(ValidationError):
            tight_config(2, 0.0)


class TestSelect:
    def test_staircase_k2_takes_middle_relay(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        assert sel.gamma == (2,)
        assert sel.omega_gamma == 2.0
        assert sel.certificate.anchor_bin is None

    def test_antisymmetric_pair_k1(self):
        sel = select(RateTable([1, 2], [2, 1]), 1, 2.0)
        assert sel.gamma == (1,)
        assert sel.omega_gamma == 1.0

    def test_duplicate_rates_k1(self):
        sel = select(RateTable([5, 1], [5, 1]), 1, 5.0)
        assert sel.gamma == (1,)
        assert sel.omega_gamma == 5.0

    def test_k_at_least_n_keeps_nonzero_relays(self):
        rt = RateTable([1.0, 0.0, 2.0], [1.0, 3.0, 2.0])
        sel = select(rt, 5, omega_fast(rt).value)
        assert sel.gamma == (1, 3)
        assert sel.certificate is None

    def test_k_at_least_n_all_dead(self):
        rt = RateTable([0.0, 1.0], [2.0, 0.0])
        sel = select(rt, 2, omega_fast(rt).value)
        assert sel.gamma == (1, 2)

    def test_zero_omega_returns_first_relay(self):
        rt = RateTable([0.0, 1.0, 5.0], [2.0, 0.0, 0.0])
        assert omega_fast(rt).value == 0.0
        sel = select(rt, 2, 0.0)
        assert sel.gamma == (1,)
        assert sel.comparisons == 0

    def test_rejects_bad_k_and_omega(self):
        rt = tight_config(2, 1.0)
        with pytest.raises(ValidationError):
            select(rt, 0, 3.0)
        with pytest.raises(ValidationError):
            select(rt, 2, -1.0)

    def test_non_numeric_omega_message(self):
        with pytest.raises(ValidationError) as exc:
            select(tight_config(2, 1.0), 1, "x")
        assert str(exc.value) == "omega must be a real number, got 'x'"

    def test_rejects_omega_too_large(self):
        with pytest.raises(ValidationError):
            select(RateTable([1, 2], [2, 1]), 1, 100.0)
        for i in range(50):
            rt = random_rt(i, master=223)
            omega = omega_fast(rt).value
            for k in range(1, rt.n):
                with pytest.raises(ValidationError):
                    select(rt, k, 4.0 * omega + 1.0)

    def test_guarantee_and_budget_sweep(self):
        for i in range(300):
            rt = random_rt(i, master=211)
            n = rt.n
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, n):
                sel = select(rt, k, omega)
                assert 1 <= len(sel.gamma) <= k
                assert sel.omega_gamma >= (k / (k + 1)) * omega - 1e-9
                assert sel.comparisons <= 2 * n * k - (k - 1) * k // 2 + 2 * n
                # the reported subnetwork value must be the true min cut
                assert sel.omega_gamma == enum_omega_of_subset(rt, sel.gamma)

    def test_certificate_shape_sweep(self):
        hit_rounds = 0
        for i in range(400):
            rt = random_rt(i, master=223, nmax=12)
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                cert = select(rt, k, omega).certificate
                assert cert is not None
                if cert.anchor_bin is None:
                    assert cert.bins == ()
                    continue
                assert 1 <= cert.anchor_bin <= k - 1
                assert cert.bins[0] == 0
                assert all(a < b for a, b in zip(cert.bins, cert.bins[1:]))
                assert cert.bins[-1] < cert.anchor_bin
                if len(cert.bins) > 1:
                    hit_rounds += 1
        assert hit_rounds > 0  # the multi-round path must actually occur

    def test_zero_rate_relays_do_not_change_selection(self):
        for i in range(50):
            rt = random_rt(i, master=227, nmax=8)
            omega = omega_fast(rt).value
            padded = RateTable(
                np.append(rt.r_s, [0.0, 0.0]), np.append(rt.r_d, [0.0, 0.0])
            )
            assert omega_fast(padded).value == omega
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                a = select(rt, k, omega)
                b = select(padded, k, omega)
                assert a.gamma == b.gamma
                assert a.omega_gamma == b.omega_gamma
                assert a.comparisons == b.comparisons


    def test_matches_scalar_scans_on_tied_tables(self):
        # integer rates tie often, so the first-qualifying-relay rule and
        # the comparison charge are both exercised; every k below n
        rng = np.random.default_rng(229)
        multi_round = 0
        for t in range(400):
            n = int(rng.integers(2, 30))
            high = 4 if t % 2 else 9
            rt = RateTable(
                rng.integers(0, high, n).astype(float),
                rng.integers(0, high, n).astype(float),
            )
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, n):
                sel = select(rt, k, omega)
                gamma, cert, comparisons = scalar_select(rt, k, omega)
                assert sel.gamma == gamma
                assert (sel.certificate.anchor_bin, sel.certificate.bins) == cert
                assert sel.comparisons == comparisons
                assert sel.omega_gamma == enum_omega_of_subset(rt, gamma)
                multi_round += len(cert[1]) > 1
        assert multi_round > 0

    def test_matches_scalar_scans_on_continuous_tables(self):
        for i in range(200):
            rt = random_rt(i, master=233, nmax=16)
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                for target in (omega, 0.6 * omega):
                    sel = select(rt, k, target)
                    gamma, cert, comparisons = scalar_select(rt, k, target)
                    assert sel.gamma == gamma
                    assert (sel.certificate.anchor_bin, sel.certificate.bins) == cert
                    assert sel.comparisons == comparisons

    def test_staircase_scan_counts_at_large_n(self):
        # the staircase makes each round scan far down the table
        n = 2000
        i = np.arange(n, dtype=np.float64)
        rt = RateTable(i + 1.0, n - i)
        omega = omega_fast(rt).value
        for k in (2, 5, 8):
            sel = select(rt, k, omega)
            gamma, cert, comparisons = scalar_select(rt, k, omega)
            assert sel.gamma == gamma
            assert sel.comparisons == comparisons


class TestVerifySelection:
    def test_accepts_staircase_selection(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        assert verify_selection(rt, sel, 2, 3.0)

    def test_rejects_empty_gamma(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        broken = type(sel)(
            gamma=(), omega_gamma=0.0, certificate=None, comparisons=0
        )
        with pytest.raises(ValidationError):
            verify_selection(rt, broken, 2, 3.0)

    def test_random_sweep_always_verifies(self):
        for i in range(150):
            rt = random_rt(i, master=229)
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                assert verify_selection(rt, select(rt, k, omega), k, omega)

    def test_same_verdict_as_bruteforce_on_a_subset_table(self):
        # the kernel runs on the subset rows; the old path built a RateTable
        # of them and called omega_bruteforce; thresholds above omega fail
        for i in range(120):
            rt = random_rt(i, master=231)
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                sel = select(rt, k, omega)
                idx = [j - 1 for j in sel.gamma]
                sub = omega_bruteforce(RateTable(rt.r_s[idx], rt.r_d[idx])).value
                assert sub == enum_omega_of_subset(rt, sel.gamma)
                for target in (omega, 1.2 * omega, 2.0 * omega):
                    want = sub >= (k / (k + 1)) * target - 1e-9
                    assert verify_selection(rt, sel, k, target) is want

    @pytest.mark.parametrize(
        "gamma,message",
        [
            ((1.5,), "selected relay index must be an integer, got 1.5"),
            ((2.0,), "selected relay index must be an integer, got 2.0"),
            (("1",), "selected relay index must be an integer, got '1'"),
            ((1, True), "selected relay index must be an integer, got True"),
            ((2, 2), "selected relay indices must be distinct, got (2, 2)"),
            ((0,), "selected relay index out of range"),
            ((1, 4), "selected relay index out of range"),
        ],
    )
    def test_rejects_bad_relay_indices(self, gamma, message):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        broken = type(sel)(gamma=gamma, omega_gamma=0.0, certificate=None, comparisons=0)
        with pytest.raises(ValidationError) as exc:
            verify_selection(rt, broken, 2, 3.0)
        assert str(exc.value) == message

    def test_accepts_numpy_integer_indices(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        as_numpy = type(sel)(
            gamma=tuple(np.int64(i) for i in sel.gamma),
            omega_gamma=sel.omega_gamma,
            certificate=sel.certificate,
            comparisons=sel.comparisons,
        )
        assert verify_selection(rt, as_numpy, 2, 3.0)

    def test_size_limit(self):
        rt = RateTable(np.ones(25), np.ones(25))
        sel = select(rt, 25, 1.0)
        with pytest.raises(SizeLimitError) as exc:
            verify_selection(rt, sel, 25, 1.0)
        assert str(exc.value) == "brute-force verification limited to 24 relays"


class TestOmegaK:
    def test_staircase_every_subset_equal(self):
        for k in range(1, 6):
            rt = tight_config(k, 1.0)
            value, subset = omega_k_bruteforce(rt, k)
            assert value == float(k)
            assert subset == tuple(range(1, k + 1))  # lexicographic tie-break

    def test_two_relay_singletons(self):
        value, subset = omega_k_bruteforce(RateTable([1, 2], [2, 1]), 1)
        assert value == 1.0
        assert subset == (1,)

    def test_full_subset_is_omega(self):
        for i in range(40):
            rt = random_rt(i, master=233, nmax=8)
            value, subset = omega_k_bruteforce(rt, rt.n)
            assert value == omega_fast(rt).value
            assert subset == tuple(range(1, rt.n + 1))

    def test_matches_enumeration_oracle(self):
        for i in range(40):
            rt = random_rt(i, master=239, nmax=7)
            for k in range(1, rt.n + 1):
                value, subset = omega_k_bruteforce(rt, k)
                oracle = max(
                    enum_omega_of_subset(rt, c)
                    for c in combinations(range(1, rt.n + 1), k)
                )
                assert value == oracle
                assert enum_omega_of_subset(rt, subset) == value

    def test_guards(self):
        rt = tight_config(2, 1.0)
        with pytest.raises(ValidationError):
            omega_k_bruteforce(rt, 4)
        big = RateTable(np.ones(40), np.ones(40))
        with pytest.raises(SizeLimitError):
            omega_k_bruteforce(big, 20)


def assert_table_matches_bruteforce(rt):
    table = omega_k_table(rt)
    assert len(table) == rt.n
    for k in range(1, rt.n + 1):
        assert table[k - 1] == omega_k_bruteforce(rt, k)[0], k


class TestOmegaKTable:
    def test_tied_integer_tables(self):
        rng = np.random.default_rng(263)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            assert_table_matches_bruteforce(
                RateTable(rng.integers(0, 4, n), rng.integers(0, 4, n))
            )

    def test_continuous_tables(self):
        rng = np.random.default_rng(269)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            assert_table_matches_bruteforce(
                RateTable(rng.exponential(size=n), rng.exponential(size=n))
            )

    def test_rayleigh_derived_tables(self):
        for i in range(150):
            assert_table_matches_bruteforce(random_rt(i, master=271, nmin=1, nmax=12))

    def test_single_relay_and_zero_rates(self):
        assert omega_k_table(RateTable([3.0], [2.0])) == (2.0,)
        assert omega_k_table(RateTable(np.zeros(5), np.zeros(5))) == (0.0,) * 5
        assert_table_matches_bruteforce(RateTable([0.0, 2.0, 0.0], [1.0, 0.0, 0.0]))

    def test_signed_zero_tables(self):
        # equal under ==, while a zero entry's sign may differ from the
        # brute force's: on this table k = 1 gives -0.0 there and 0.0 here
        r_s = [-0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert_table_matches_bruteforce(RateTable(r_s, [0.0] + [-0.0] * 7))
        rng = np.random.default_rng(277)
        for _ in range(50):
            zeros = rng.choice([0.0, -0.0], size=(2, 8))
            assert_table_matches_bruteforce(RateTable(zeros[0], zeros[1]))

    def test_staircase(self):
        for k in range(1, 9):
            table = omega_k_table(tight_config(k, 1.0))
            assert table[k - 1] == float(k)
            assert table[k] == float(k + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1023.0, allow_subnormal=False),
                st.floats(0.0, 1023.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_matches_bruteforce(self, rates):
        r_s, r_d = zip(*rates)
        assert_table_matches_bruteforce(RateTable(r_s, r_d))

    def test_guards(self):
        n = SUBSET_ENUMERATION_LIMIT.bit_length()  # the first n with 2**n > limit
        assert len(omega_k_table(RateTable(np.ones(n - 1), np.ones(n - 1)))) == n - 1
        with pytest.raises(SizeLimitError, match="enumeration limit"):
            omega_k_table(RateTable(np.ones(n), np.ones(n)))
        with pytest.raises(ValidationError, match="must be a RateTable"):
            omega_k_table(([1.0], [1.0]))


class TestOmegaKRatio:
    def test_staircase_is_exact(self):
        for k in range(1, 9):
            assert omega_k_ratio(tight_config(k, 1.0), k) == pytest.approx(
                k / (k + 1), abs=1e-12
            )

    def test_full_k_is_one(self):
        for i in range(20):
            rt = random_rt(i, master=241, nmax=7)
            assert omega_k_ratio(rt, rt.n) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_and_monotonicity(self):
        for i in range(100):
            rt = random_rt(i, master=251)
            prev = 0.0
            for k in range(1, rt.n):
                r = omega_k_ratio(rt, k)
                assert k / (k + 1) - 1e-9 <= r <= 1.0 + 1e-12
                assert r >= prev - 1e-12
                prev = r

    def test_degenerate_network(self):
        with pytest.raises(DegenerateNetworkError):
            omega_k_ratio(RateTable([0.0, 1.0], [3.0, 0.0]), 1)


class TestGuarantee:
    def test_routing_model_frozen_value(self):
        rep = guarantee(20.0, 1, 100, "routing")
        expected = 0.5 * 20.0 - 0.5 * max(
            3 * math.log2(100) - math.log2(27 / 4), 2 * math.log2(100)
        )
        assert rep.lower_bound == pytest.approx(expected, abs=1e-12)
        assert rep.lower_bound == pytest.approx(1.411659466419648, abs=1e-9)

    def test_zero_input_clips(self):
        assert guarantee(0.0, 2, 10, "nnc").lower_bound == 0.0

    def test_nnc_frozen_value(self):
        rep = guarantee(30.0, 3, 3, "nnc")
        assert rep.lower_bound == pytest.approx(16.222556248918266, abs=1e-9)
        mult, sgap, bgap = rep.components
        assert mult == pytest.approx(22.5)
        assert sgap == pytest.approx(3.9)
        assert bgap == pytest.approx(0.75 * gap_constant(3))

    def test_strategy_gaps(self):
        assert strategy_gap(4, "nnc") == pytest.approx(5.2)
        assert strategy_gap(3, "optimized") == pytest.approx(
            math.log2(4) + math.log2(3) + 1
        )
        assert strategy_gap(1, "routing") == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            guarantee(10.0, 2, 10, "routing")
        with pytest.raises(ValidationError):
            guarantee(10.0, 11, 10, "nnc")
        with pytest.raises(ValidationError):
            guarantee(-1.0, 1, 10, "nnc")
        with pytest.raises(ValidationError):
            guarantee(10.0, 1, 10, "bogus")

    def test_non_numeric_message(self):
        with pytest.raises(ValidationError) as exc:
            guarantee("x", 1, 2, "nnc")
        assert str(exc.value) == "c_bar_approx must be a real number, got 'x'"


class TestHybridTradeoff:
    def test_large_network_moderate_rate(self):
        tr = hybrid_tradeoff(20.0, 100, "nnc")
        assert tr.baseline == 0.0  # 20 - 130 clips
        assert tr.best_k == 1
        assert dict(tr.entries)[1] == pytest.approx(0.1116594664196473, abs=1e-9)

    def test_large_rate_small_network(self):
        tr = hybrid_tradeoff(1000.0, 3, "nnc")
        assert tr.best_k == 3

    def test_single_relay(self):
        assert hybrid_tradeoff(5.0, 1, "nnc").best_k == 1

    def test_routing_table_has_one_row(self):
        tr = hybrid_tradeoff(8.0, 6, "routing")
        assert tr.entries == ((1, guarantee(8.0, 1, 6, "routing").lower_bound),)

    @pytest.mark.parametrize("gap_model", ["nnc", "optimized", "routing"])
    def test_entries_bit_identical_to_guarantee(self, gap_model):
        for c_bar, n in ((0.0, 5), (12.5, 40), (300.0, 257), (1e4, 1000)):
            tr = hybrid_tradeoff(c_bar, n, gap_model)
            for k, value in tr.entries:
                assert value == guarantee(c_bar, k, n, gap_model).lower_bound
            best = max(v for _, v in tr.entries)
            assert tr.best_k == min(k for k, v in tr.entries if v == best)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError, match="c_bar_approx"):
            hybrid_tradeoff(math.nan, 5)
        with pytest.raises(ValidationError, match="n must be"):
            hybrid_tradeoff(-1.0, 0)
        with pytest.raises(ValidationError, match="unknown gap model"):
            hybrid_tradeoff(-1.0, 3, "bogus")

    def test_entries_nonnegative_and_smallest_tie_wins(self):
        tr = hybrid_tradeoff(0.0, 7, "optimized")
        assert all(v == 0.0 for _, v in tr.entries)
        assert tr.best_k == 1
