import itertools
import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import (
    Cut,
    DegenerateNetworkError,
    RateTable,
    SelectionResult,
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
from diamondnet import kernels, selection
from diamondnet.selection import (
    _MAX_ARRAY_LEN,
    SUBSET_ENUMERATION_LIMIT,
    _clears_bound,
)
from diamondnet.verify import trial_seed


def _thresholds(omega, k):
    """[tau_0, ..., tau_k], each formed by ``selection._tau``."""
    return list(map(selection._tau(omega, k), range(k + 1)))


@pytest.fixture
def formed(monkeypatch):
    """The j of each threshold tau_j that ``selection._tau`` forms, in order."""
    formed = []
    tau = selection._tau

    def counted(omega, k):
        fn = tau(omega, k)
        return lambda j: formed.append(j) or fn(j)

    monkeypatch.setattr(selection, "_tau", counted)
    return formed


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# tied and zero rates beside continuous ones
TIED_RATES = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 64.0))


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

    It reads ``select``'s own thresholds, so it checks the scans and bins;
    the thresholds are checked by the tests that run ``select`` at
    ``omega_fast``'s omega on decimal, scaled and staircase tables.
    Returns (gamma, certificate); certificate is (anchor_bin, bins) or
    None. Assumes 1 <= k < n and omega > 0.
    """
    picks, cert = scalar_picks(rt, k, omega)
    return tuple(sorted(picks)), cert


def scalar_picks(rt, k, omega):
    """``scalar_select`` with the picks in the order the scans made them,
    the anchor first; the scans skip the relays already picked."""
    n, r_s, r_d = rt.n, rt.r_s, rt.r_d
    tau = _thresholds(omega, k)
    p = -1
    for i in range(n):
        if r_s[i] >= tau[k] and r_d[i] >= tau[1]:
            p = i
            break
    if p < 0:
        raise ValidationError("no anchor")
    if r_d[p] >= tau[k]:
        return [p + 1], (None, ())
    a = -1
    for cand_a in range(1, k):
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
            if not used[i] and r_s[i] >= tau[a_prev + 1] and r_d[i] >= tau[k - a_prev]:
                y = i
                break
        if y < 0:
            raise ValidationError("no qualifying relay")
        used[y] = True
        collected.append(y + 1)
        if r_s[y] >= tau[a]:
            return [p + 1] + collected, (a, tuple(bins))
        a_r = -1
        for cand in range(a_prev + 1, a):
            if r_s[y] < tau[cand + 1]:
                a_r = cand
                break
        if a_r < 0:
            raise ValidationError("no round bin")
        bins.append(a_r)
        a_prev = a_r
    raise ValidationError("no termination")


def scan_count(n, bins):
    """``select``'s comparisons for a pick whose certificate has ``bins``:
    2 rate tests per relay in the anchor scan and in each round's."""
    return 2 * n * (1 + len(bins))


# the only errors ``select`` raises for a valid table, k and omega
SELECT_ERRORS = (
    "no anchor relay clears the top threshold; omega is inconsistent "
    "with the rate table",
    "no qualifying relay at a selection round; omega is inconsistent "
    "with the rate table",
)


def random_rt(i, master, nmin=2, nmax=10):
    s = trial_seed(master, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(nmin, nmax + 1))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
    return rate_table(random_network(n, snr, s, dist))


def check_any_omega(rt, k, omega):
    """Check ``select`` at a caller omega, consistent with ``rt`` or not.

    It must raise one of ``SELECT_ERRORS`` or return a result with a
    well-formed certificate, as the relay-by-relay scans do. Returns the
    error message, or the certificate's shape: "none", "alone" or "bins<l>".
    """
    n = rt.n
    try:
        sel = select(rt, k, omega)
    except ValidationError as exc:
        assert str(exc) in SELECT_ERRORS
        # the scalar scans fail at the same step
        oracle = "no anchor" if str(exc) == SELECT_ERRORS[0] else "no qualifying relay"
        with pytest.raises(ValidationError, match=f"^{oracle}$"):
            scalar_select(rt, k, omega)
        return str(exc)
    assert 1 <= len(sel.gamma) <= k
    assert sel.comparisons <= 2 * n * k
    cert = sel.certificate
    if k >= n or omega == 0.0:
        assert cert is None
        assert sel.comparisons == (2 * n if k >= n else 0)
        return "none"
    gamma, scalar_cert = scalar_select(rt, k, omega)
    assert (sel.gamma, sel.comparisons) == (gamma, scan_count(n, scalar_cert[1]))
    assert (cert.anchor_bin, cert.bins) == scalar_cert
    if cert.anchor_bin is None:
        assert cert.bins == () and len(sel.gamma) == 1
        return "alone"
    assert cert.bins[0] == 0
    assert all(a < b for a, b in zip(cert.bins, cert.bins[1:]))
    assert cert.bins[-1] < cert.anchor_bin <= k - 1
    return f"bins{len(cert.bins)}"


def assert_omega_gamma_is_omega_fast(rt, k, omega):
    """``select``'s omega_gamma is ``omega_fast`` of its pick, bit for bit;
    returns the selection."""
    sel = select(rt, k, omega)
    idx = np.array(sel.gamma) - 1
    want = omega_fast(RateTable(rt.r_s[idx], rt.r_d[idx])).value
    assert same_bits(sel.omega_gamma, want)
    return sel


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
        assert sel.gamma == tuple(range(1, rt.n + 1))

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

    @pytest.mark.parametrize(
        "k, want",
        [
            (np.int64(2), 2),
            (np.int32(1), 1),
            (np.uint8(5), 5),
            (0, "k must be a positive integer, got 0"),
            (-1, "k must be a positive integer, got -1"),
            (1.5, "k must be a positive integer, got 1.5"),
            (None, "k must be a positive integer, got None"),
            (True, "k must be a positive integer, got True"),
            ("2", "k must be a positive integer, got '2'"),
        ],
    )
    def test_k_is_any_positive_int(self, k, want):
        rt = tight_config(2, 1.0)
        if isinstance(want, int):
            assert select(rt, k, 3.0) == select(rt, want, 3.0)
            return
        with pytest.raises(ValidationError) as exc:
            select(rt, k, 3.0)
        assert str(exc.value) == want

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(TIED_RATES, TIED_RATES), min_size=1, max_size=10),
        st.data(),
    )
    def test_property_any_caller_omega(self, rates, data):
        rt = RateTable(*zip(*rates))
        k = data.draw(st.integers(1, rt.n), label="k")
        top = 2.0 * omega_fast(rt).value
        check_any_omega(rt, k, data.draw(st.floats(0.0, top), label="omega"))

    def test_any_caller_omega_sweep(self):
        # every outcome, multi-round certificates included, must occur
        rng = np.random.default_rng(239)
        outcomes = set()
        for i in range(300):
            rt = random_rt(i, master=239, nmin=3, nmax=12)
            top = 2.0 * omega_fast(rt).value
            for k in range(1, rt.n):
                outcomes.add(check_any_omega(rt, k, top * rng.random()))
        assert outcomes >= {*SELECT_ERRORS, "alone", "bins1", "bins2"}

    def test_staircase_at_huge_rates(self):
        # j * omega overflows for the top thresholds of the larger staircases
        for k in range(2, 7):
            expected = select(tight_config(k, 1.0), k, k + 1.0).gamma
            top = 1.7e308 / (k + 1)
            for b in (1e300, 5e307, top):
                if b > top:
                    continue
                rt = tight_config(k, b)
                omega = omega_fast(rt).value
                sel = select(rt, k, omega)
                assert sel.gamma == expected
                assert sel.omega_gamma == pytest.approx(k * b, rel=1e-12)
                assert sel.omega_gamma == pytest.approx(
                    (k / (k + 1)) * omega, rel=1e-12
                )

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
                assert sel.comparisons == scan_count(n, sel.certificate.bins)
                assert sel.comparisons <= 2 * n * k
                # the reported subnetwork value must be the true min cut
                assert sel.omega_gamma == enum_omega_of_subset(rt, sel.gamma)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(TIED_RATES, TIED_RATES), min_size=1, max_size=10),
        st.data(),
    )
    def test_property_guarantee_and_budget(self, rates, data):
        rt = RateTable(*zip(*rates))
        n = rt.n
        k = data.draw(st.integers(1, n), label="k")
        omega = omega_fast(rt).value
        sel = select(rt, k, omega)
        assert sel.omega_gamma >= (k / (k + 1)) * omega - 1e-9
        assert verify_selection(rt, sel, k, omega)
        assert sel.comparisons <= 2 * n * k

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
                # as many scans, each of two more relays
                assert a.comparisons // rt.n == b.comparisons // padded.n


    def test_matches_scalar_scans_on_tied_tables(self):
        # integer rates tie often, so the first-qualifying-relay rule is
        # exercised; every k below n
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
                gamma, cert = scalar_select(rt, k, omega)
                assert sel.gamma == gamma
                assert (sel.certificate.anchor_bin, sel.certificate.bins) == cert
                assert sel.comparisons == scan_count(n, cert[1])
                assert sel.omega_gamma == enum_omega_of_subset(rt, gamma)
                multi_round += len(cert[1]) > 1
        assert multi_round > 0

    def test_picks_when_round_hits_precede_the_anchor(self):
        # staircases sorted by r_s put the round hits before the anchor;
        # tied fillers sit on both sides of each hit, and the shuffled half
        # also puts hits after the anchor and after earlier picks. The
        # scans of ``select`` run over all relays and the oracle's skip the
        # picks, so a pick that qualified again would part them.
        rng = np.random.default_rng(1103)
        seen = Counter()
        for t in range(240):
            k = int(rng.integers(2, 8))
            rates = np.arange(1.0, k + 2)
            rows = np.stack((rates, k + 2 - rates))
            m = int(rng.integers(1, 2 * k))
            fill = rows[:, rng.integers(0, k + 1, m)] - rng.integers(0, 2, (2, m))
            rows = np.concatenate((rows, fill), axis=1)
            if t % 2:
                order = np.argsort(rows[0], kind="stable")
            else:
                order = rng.permutation(rows.shape[1])
            rt = RateTable(*rows[:, order])
            omega = omega_fast(rt).value
            for kk in range(1, rt.n):
                sel = select(rt, kk, omega)
                picks, cert = scalar_picks(rt, kk, omega)
                assert sel.gamma == tuple(sorted(picks))
                assert (sel.certificate.anchor_bin, sel.certificate.bins) == cert
                assert sel.comparisons == scan_count(rt.n, cert[1])
                anchor, r_s = picks[0], rt.r_s
                for j, hit in enumerate(picks[1:], 1):
                    side = "before" if hit < anchor else "after"
                    tied = r_s == r_s[hit - 1]
                    seen[side, bool(tied[: hit - 1].any() and tied[hit:].any())] += 1
                    seen["skips"] += any(g < hit for g in picks[:j])
        assert seen["before", True] and seen["after", True] and seen["skips"]

    def test_matches_scalar_scans_on_continuous_tables(self):
        for i in range(200):
            rt = random_rt(i, master=233, nmax=16)
            omega = omega_fast(rt).value
            if omega <= 0.0:
                continue
            for k in range(1, rt.n):
                for target in (omega, 0.6 * omega):
                    sel = select(rt, k, target)
                    gamma, cert = scalar_select(rt, k, target)
                    assert sel.gamma == gamma
                    assert (sel.certificate.anchor_bin, sel.certificate.bins) == cert
                    assert sel.comparisons == scan_count(rt.n, cert[1])

    @pytest.mark.parametrize("base_rate", [0.1, 0.2, 0.3, 1 / 3, 0.7, 3.3, 1e-5, 1e300])
    def test_staircase_at_omega_fast(self, base_rate):
        # omega_fast's float sum can exceed the exact min cut: at tight 2 0.1
        # it is 0.1 + 0.2 = 0.30000000000000004, and j * omega / (k+1) put
        # tau_2 above relay 2's r_s = 0.2 (the anchor scan failed)
        for k in range(1, 13):
            rt = tight_config(k, base_rate)
            omega = omega_fast(rt).value
            for kk in range(1, k + 2):
                assert verify_selection(rt, select(rt, kk, omega), kk, omega)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1]),
                    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1]),
                ),
                min_size=2,
                max_size=10,
            ),
            st.integers(-310, 300).flatmap(
                lambda e: st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
                        lambda p: (p[0] * 10.0**e, p[1] * 10.0**e)
                    ),
                    min_size=2,
                    max_size=10,
                )
            ),
        ),
        st.data(),
    )
    def test_property_decimal_and_scaled_tables_at_omega_fast(self, rates, data):
        rt = RateTable(*zip(*rates))
        k = data.draw(st.integers(1, rt.n), label="k")
        omega = omega_fast(rt).value
        assert verify_selection(rt, select(rt, k, omega), k, omega)

    def test_omega_gamma_is_omega_fast_of_the_pick(self):
        rng = np.random.default_rng(16)
        for i in range(400):
            n = int(rng.integers(1, 11))
            if i % 4 == 0:  # tied
                rates = rng.integers(0, 3, (2, n)).astype(np.float64)
            elif i % 4 == 1:  # decimal
                rates = rng.integers(0, 12, (2, n)) / 10.0
            else:  # continuous, half of them with zero-rate relays
                rates = rng.uniform(0.0, 5.0, (2, n))
                if i % 4 == 2:
                    rates[:, rng.random(n) < 0.4] = 0.0
            rt = RateTable(*rates)
            omega = omega_fast(rt).value
            for k in range(1, n + 1):
                for scale in (1.0, 0.6):
                    assert_omega_gamma_is_omega_fast(rt, k, scale * omega)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(TIED_RATES, st.sampled_from([0.1, 0.2, 0.3, 0.7])),
                st.one_of(TIED_RATES, st.sampled_from([0.1, 0.2, 0.3, 0.7])),
            ),
            min_size=1,
            max_size=10,
        ),
        st.data(),
    )
    def test_property_omega_gamma_is_omega_fast_of_the_pick(self, rates, data):
        rt = RateTable(*zip(*rates))
        k = data.draw(st.integers(1, rt.n), label="k")
        assert_omega_gamma_is_omega_fast(rt, k, omega_fast(rt).value)

    def test_staircase_scan_counts_at_large_n(self):
        # the staircase makes each round scan far down the table
        n = 2000
        i = np.arange(n, dtype=np.float64)
        rt = RateTable(i + 1.0, n - i)
        omega = omega_fast(rt).value
        for k in (2, 5, 8):
            sel = select(rt, k, omega)
            gamma, cert = scalar_select(rt, k, omega)
            assert sel.gamma == gamma
            assert sel.comparisons == scan_count(n, cert[1])

    @pytest.mark.parametrize(
        "k, omega_hex, comparisons",
        [
            (10**3, "0x1.f400000000000p+9", 1_999_998),
            (10**4, "0x1.3880000000000p+13", 199_999_998),
        ],
    )
    def test_large_staircase_pick_is_pinned(self, k, omega_hex, comparisons):
        # the anchor scan and k - 2 rounds, each a scan of the k + 1 relays;
        # k = 10**4 runs in well under a second
        rt = tight_config(k)
        sel = select(rt, k, omega_fast(rt).value)
        assert sel.gamma == tuple(range(1, k - 1)) + (k,)
        assert sel.certificate.anchor_bin == k - 2
        assert len(sel.certificate.bins) == k - 2
        assert sel.omega_gamma.hex() == omega_hex
        assert sel.comparisons == comparisons
        assert verify_selection(rt, sel, k, omega_fast(rt).value)


class TestVerifySelection:
    def test_accepts_staircase_selection(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        assert verify_selection(rt, sel, 2, 3.0)

    def test_huge_staircase_is_accepted(self):
        # an absolute 1e-9 slack is nothing at rates of 1e306
        rt = tight_config(5, 1e306)
        omega = omega_fast(rt).value
        assert verify_selection(rt, select(rt, 5, omega), 5, omega)

    def test_tiny_rates_are_not_waved_through(self):
        # relay 1 alone carries 1e-12, short of half of omega = 1e-10
        rt = RateTable([1e-12, 1e-10], [1e-12, 1e-10])
        sel = SelectionResult(
            gamma=(1,), omega_gamma=1e-12, certificate=None, comparisons=0
        )
        assert not verify_selection(rt, sel, 1, omega_fast(rt).value)
        assert verify_selection(rt, select(rt, 1, 1e-10), 1, 1e-10)

    def test_rejects_empty_gamma(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        broken = type(sel)(
            gamma=(), omega_gamma=0.0, certificate=None, comparisons=0
        )
        with pytest.raises(ValidationError):
            verify_selection(rt, broken, 2, 3.0)

    def test_pick_at_a_huge_k_clears_tau_k_alone(self, formed):
        # a value at least tau_k clears the bound at its first sum, x = 0,
        # so only tau_0 and tau_k are formed
        rt = tight_config(2)
        omega = omega_fast(rt).value
        k = 10**12
        sel = select(rt, k, omega)
        assert sel.gamma == tuple(range(1, rt.n + 1))
        assert verify_selection(rt, sel, k, omega)
        assert formed == [0, k]

    def test_select_forms_the_thresholds_it_reads(self, formed):
        # two per scan, and one bisection of about log2(k) per bin; no list
        # of k + 1
        rt = rate_table(random_network(100_001, 10.0, 7))
        omega = omega_fast(rt).value
        k = 10**5
        sel = select(rt, k, omega)
        bins = sel.certificate.bins
        assert 0 < len(formed) <= 2 * (1 + len(bins)) * (k.bit_length() + 2)

    def test_tau_k_clears_the_bound(self):
        rng = np.random.default_rng(233)
        omegas = [5e-324, 1e-310, 0.1, 1.0, 3.0, 1e300, 1.7976931348623157e308]
        for omega in omegas + rng.lognormal(0.0, 30.0, 40).tolist():
            for k in (1, 2, 7, 1000):
                assert _clears_bound(_thresholds(omega, k)[k], omega, k)

    def test_forged_pick_below_tau_k_builds_no_threshold_list(self):
        # relay 1 alone has omega 1, below every sum at omega 3: all k / 2 + 1
        # sums are formed, one at a time
        rt = tight_config(2)
        sel = SelectionResult((1,), 0.0, None, 0)
        omega = omega_fast(rt).value
        tracemalloc.start()
        try:
            assert not verify_selection(rt, sel, 10**6, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
                    tau = _thresholds(target, k)
                    want = sub >= min(tau[x] + tau[k - x] for x in range(k + 1))
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
            ((), "selection has an empty relay set"),
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

    @pytest.mark.parametrize(
        "gamma, want",
        [
            (np.array([1, 3]), True),
            (np.array([3, 1], dtype=np.uint8), True),
            (range(1, 4, 2), True),
            (np.array([0, 1]), "selected relay index out of range"),
            (np.array([], dtype=int), "selection has an empty relay set"),
            (5, "selection relay set must be an iterable, got 5"),
            (1.5, "selection relay set must be an iterable, got 1.5"),
            (None, "selection relay set must be an iterable, got None"),
        ],
    )
    def test_relay_set_is_any_iterable_of_indices(self, gamma, want):
        # the pick {1, 3} has omega 2, just above the bound at k = 2
        rt = tight_config(2, 1.0)
        sel = SelectionResult(gamma=gamma, omega_gamma=0.0, certificate=None, comparisons=0)
        if want is True:
            assert verify_selection(rt, sel, 2, 3.0) is True
            return
        with pytest.raises(ValidationError) as exc:
            verify_selection(rt, sel, 2, 3.0)
        assert str(exc.value) == want

    def test_pick_past_the_old_brute_force_limit_verifies(self):
        # 28 relays: a lattice walk would need 2**28 cuts
        rt = tight_config(29)
        omega = omega_fast(rt).value
        sel = select(rt, 29, omega)
        assert len(sel.gamma) == 28
        assert verify_selection(rt, sel, 29, omega)

    def test_rejects_bad_arguments(self):
        rt = tight_config(2, 1.0)
        sel = select(rt, 2, 3.0)
        with pytest.raises(ValidationError, match="k must be a positive integer"):
            verify_selection(rt, sel, 0, 3.0)
        with pytest.raises(ValidationError, match="sel must be a SelectionResult"):
            verify_selection(rt, "x", 2, 3.0)
        # the largest k taken, on the whole network, which clears tau_k
        assert verify_selection(rt, select(rt, 3, 3.0), _MAX_ARRAY_LEN - 1, 3.0)
        for k in (_MAX_ARRAY_LEN, 10**400):
            with pytest.raises(ValidationError) as exc:
                verify_selection(rt, sel, k, 3.0)
            assert str(exc.value) == f"k is too large: k must be below {_MAX_ARRAY_LEN}"


# tied integers, decimals, subnormals, and staircases
BATCH_TABLES = st.one_of(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 2.0])),
        min_size=1,
        max_size=12,
    ).map(lambda rates: RateTable(*zip(*rates))),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1]),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1]),
        ),
        min_size=1,
        max_size=12,
    ).map(lambda rates: RateTable(*zip(*rates))),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=12
    ).map(lambda pairs: RateTable(*(np.array(pairs).T * 5e-324))),
    st.tuples(
        st.integers(1, 11), st.sampled_from([0.1, 1.0, 1 / 3, 5e-324, 1e300])
    ).map(lambda arg: tight_config(*arg)),
)


class TestOmegaGammaEveryK:
    """``select``'s omega_gamma at every k against the pick's own table."""

    @settings(max_examples=300, deadline=None)
    @given(BATCH_TABLES)
    def test_property_omega_gamma_is_omega_fast_and_the_enumeration(self, rt):
        omega = omega_fast(rt).value
        enumerated = {}
        for w in (omega, 0.5 * omega, 0.0):
            for k in range(1, rt.n + 2):
                sel = assert_omega_gamma_is_omega_fast(rt, k, w)
                if sel.gamma not in enumerated:
                    enumerated[sel.gamma] = enum_omega_of_subset(rt, sel.gamma)
                assert enumerated[sel.gamma] == sel.omega_gamma

    def test_random_networks_every_k(self):
        for i in range(150):
            rt = random_rt(i, master=347, nmax=14)
            omega = omega_fast(rt).value
            for k in range(1, rt.n + 1):
                sel = assert_omega_gamma_is_omega_fast(rt, k, omega)
                assert verify_selection(rt, sel, k, omega)


class TestComparisonCounts:
    """``comparisons`` counts the tests ``omega_fast`` and ``select`` run."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            BATCH_TABLES,
            st.lists(
                st.tuples(st.floats(0.0, 64.0), st.floats(0.0, 64.0)),
                min_size=1,
                max_size=12,
            ).map(lambda rates: RateTable(*zip(*rates))),
        )
    )
    def test_property_counts_are_the_scans(self, rt):
        n = rt.n
        fast = omega_fast(rt)
        # n - 1 suffix maxima, then the argmin over n + 1 candidates
        assert fast.comparisons == 2 * n - 1
        for w in (fast.value, 0.5 * fast.value, 0.0):
            for k in range(1, n + 2):
                sel = select(rt, k, w)
                if k >= n:
                    assert sel.comparisons == 2 * n
                elif w <= 0.0:
                    assert sel.comparisons == 0
                else:
                    # one scan per pick: the anchor's and one per round
                    assert sel.comparisons == scan_count(n, sel.certificate.bins)
                    assert sel.comparisons == 2 * n * len(sel.gamma) <= 2 * n * k


def brute_verdict(rt, gamma, k, omega):
    """The verdict of ``verify_selection`` from the lattice walk over the
    pick's cuts, against the bound formed here from the thresholds."""
    idx = np.array(gamma) - 1
    (value,), _ = kernels.brute_omega(rt.r_s[idx][None], rt.r_d[idx][None])
    tau = _thresholds(omega, k)
    return bool(value >= min(tau[x] + tau[k - x] for x in range(k + 1)))


class TestVerifyAgainstTheLattice:
    """``verify_selection``'s sorted scan against the brute-force walk."""

    @settings(max_examples=300, deadline=None)
    @given(BATCH_TABLES, st.data())
    def test_property_verdict_is_the_walk_against_the_bound(self, rt, data):
        ks = data.draw(st.lists(st.integers(1, rt.n + 1), min_size=1, max_size=4))
        forged = data.draw(
            st.lists(st.integers(1, rt.n), min_size=1, max_size=rt.n, unique=True),
            label="forged",
        )
        omega = omega_fast(rt).value
        picks = [(select(rt, k, omega).gamma, k) for k in ks]
        picks.append((tuple(forged), ks[0]))
        for gamma, k in picks:
            sel = SelectionResult(gamma, 0.0, None, 0)
            for w in (omega, 0.5 * omega, 2.0 * omega):
                assert verify_selection(rt, sel, k, w) is brute_verdict(rt, gamma, k, w)


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
        assert same_bits(table[k - 1], omega_k_bruteforce(rt, k)[0]), k


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
        # RateTable stores -0.0 as 0.0, so every zero entry is 0.0 on both sides
        r_s = [-0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert_table_matches_bruteforce(RateTable(r_s, [0.0] + [-0.0] * 7))
        rng = np.random.default_rng(277)
        for _ in range(50):
            zeros = rng.choice([0.0, -0.0], size=(2, 8))
            assert_table_matches_bruteforce(RateTable(zeros[0], zeros[1]))

    def test_staircase(self):
        for k in (*range(1, 9), 50, 300):
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

    def test_large_table_keeps_the_subnetwork_bounds(self):
        rng = np.random.default_rng(293)
        rt = RateTable(rng.exponential(size=1000), rng.exponential(size=1000))
        table = np.array(omega_k_table(rt))
        omega = omega_fast(rt).value
        assert same_bits(table[-1], omega)
        assert (np.diff(table) >= 0.0).all()
        k = np.arange(1, 1001)
        assert (table >= k / (k + 1) * omega).all()

    def test_guards(self):
        n = math.isqrt(SUBSET_ENUMERATION_LIMIT)  # the last n with n**2 <= limit
        assert n == 1000
        assert len(omega_k_table(RateTable(np.ones(n), np.ones(n)))) == n
        with pytest.raises(SizeLimitError, match="1001\\*\\*2 relay pairs"):
            omega_k_table(RateTable(np.ones(n + 1), np.ones(n + 1)))
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

    def test_entries_bit_identical_where_numpy_log2_differs(self):
        # np.log2 and math.log2 differ at 1621 and 3242 (57 of the integers
        # up to 10**6); the optimized gap takes math.log2 of k and k + 1,
        # and bounds near 1 show a last-bit change of it
        for gap_model, c_bar in itertools.product(("nnc", "optimized"), (56.0, 58.0, 1e6)):
            tr = hybrid_tradeoff(c_bar, 3300, gap_model)
            for k in (1, 1620, 1621, 1622, 3241, 3242, 3243, 3300):
                want = guarantee(c_bar, k, 3300, gap_model).lower_bound
                assert tr.entries[k - 1] == (k, want)
                assert tr.entries[k - 1][1].hex() == want.hex()

    @pytest.mark.parametrize("gap_model", ["nnc", "optimized", "routing"])
    def test_zero_bounds_are_positive_zeros(self, gap_model):
        # at c = -0.0 and n = 1 the routing bound is -0.0, which max(0.0, x)
        # reports as 0.0
        for c_bar in (-0.0, 0.0):
            for n in (1, 2, 7):
                tr = hybrid_tradeoff(c_bar, n, gap_model)
                for k, value in tr.entries:
                    want = guarantee(c_bar, k, n, gap_model).lower_bound
                    assert value.hex() == want.hex() == "0x0.0p+0"
                assert tr.best_k == 1

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
