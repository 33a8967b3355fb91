import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import (
    AfCoefficients,
    Network,
    RateTable,
    SizeLimitError,
    ValidationError,
    af_grid_search,
    af_optimize,
    af_rate,
    af_rate_batch,
    af_snr_bound_sides,
    af_upper_bound,
    random_network,
    rate_table,
    tight_config,
)
from diamondnet import kernels
from diamondnet.af import _af_weights
from diamondnet.verify import trial_seed


def unit_net(n):
    return Network(1.0, np.ones(n), np.ones(n))


def random_net(i, master, nmax=8, snr_hi=64.0):
    s = trial_seed(master, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(1, nmax + 1))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(snr_hi))))
    return random_network(n, snr, s, dist)


def gap_net(i, master=353):
    """A 2-4 relay network at snr 1e-10 with gains 1e150-1e158, where w is
    near 1e156 and the unscaled KKT scores overflow."""
    rng = np.random.default_rng(trial_seed(master, i))
    n = int(rng.integers(2, 5))
    return Network(1e-10, *(10.0 ** rng.uniform(150.0, 158.0, size=(2, n))))


class TestAfRate:
    def test_silent_relays(self):
        assert af_rate(unit_net(3), [0.0, 0.0, 0.0]) == 0.0

    def test_single_relay_full_power(self):
        # beta**2 = 1/2, numerator 1/2, denominator 3/2
        assert af_rate(unit_net(1), [1.0]) == pytest.approx(
            math.log2(4.0 / 3.0), abs=1e-12
        )

    def test_two_identical_relays(self):
        assert af_rate(unit_net(2), [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            af_rate(unit_net(2), [1.0])

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValidationError):
            af_rate(unit_net(1), [1.5])
        with pytest.raises(ValidationError):
            AfCoefficients([-0.1])

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: AfCoefficients(["a"]),
                "alpha entries must be real numbers: could not convert string to float: 'a'",
            ),
            (
                lambda: af_rate_batch(unit_net(2), [["a", "b"]]),
                "alphas entries must be real numbers: could not convert string to float: 'a'",
            ),
        ],
    )
    def test_non_numeric_messages(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    def test_batch_matches_single(self):
        net = random_net(0, master=301, nmax=5)
        rng = np.random.default_rng(1)
        alphas = rng.uniform(0, 1, (20, net.n))
        batch = af_rate_batch(net, alphas)
        for row, expected in zip(alphas, batch):
            assert af_rate(net, row) == float(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.integers(1, 24),
        st.sampled_from((1.0, 2e152)),
        st.booleans(),
        st.data(),
    )
    def test_row_is_bit_identical_alone_and_anywhere_in_a_batch(
        self, seed, n, m, scale, fortran, data
    ):
        # destination gains scaled by 2e152 send rows through the overflow
        # branch, with snr * gain**2 still finite
        rng = np.random.default_rng(seed)
        snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
        net = Network(snr, rng.rayleigh(size=n), scale * rng.rayleigh(size=n))
        alphas = rng.uniform(0.0, 1.0, (m, n))
        alphas[rng.random((m, n)) < 0.2] = 1.0
        batch = af_rate_batch(net, np.asfortranarray(alphas) if fortran else alphas)
        i = data.draw(st.integers(0, m - 1))
        alone = af_rate_batch(net, alphas[i : i + 1])
        assert batch[i].tobytes() == alone[0].tobytes()
        assert af_rate(net, alphas[i]) == float(alone[0])

    @pytest.mark.parametrize("n", [10000, 100000])
    def test_long_row_is_bit_identical_alone_and_in_a_batch(self, n):
        # einsum splits a row longer than numpy's 8192-element buffer into
        # pieces, but only in a batch of more than one row
        rng = np.random.default_rng(n)
        net = Network(4.0, rng.rayleigh(size=n), rng.rayleigh(size=n))
        alphas = rng.uniform(0.0, 1.0, (3, n))
        batch = af_rate_batch(net, alphas)
        for i in range(3):
            assert batch[i] == af_rate(net, alphas[i])
        rep = af_optimize(net)
        assert rep.rate == af_rate(net, rep.alpha.alpha)

    def test_batch_matches_formula_row_by_row(self):
        for i in range(20):
            net = random_net(i, master=307, nmax=8)
            rng = np.random.default_rng(i)
            alphas = rng.uniform(0, 1, (6, net.n))
            alphas[0] = 0.0
            alphas[1] = 1.0
            snr = net.snr
            gains = list(zip(*(g.tolist() for g in net.gain_arrays())))
            w = [gd * gs * math.sqrt(snr / (1 + gs * gs * snr)) for gs, gd in gains]
            v = [gd * gd * snr / (1 + gs * gs * snr) for gs, gd in gains]
            batch = af_rate_batch(net, alphas)
            assert batch[0] == 0.0
            for row, got in zip(alphas.tolist(), batch.tolist()):
                num = sum(wi * a for wi, a in zip(w, row))
                den = 1 + sum(vi * a * a for vi, a in zip(v, row))
                assert got == pytest.approx(math.log2(1 + snr * num * num / den), rel=1e-12)

    def test_phase_alignment_dominates_sampled_phases(self):
        # coherent magnitudes upper-bound every random phase assignment
        rng = np.random.default_rng(17)
        for i in range(50):
            net = random_net(i, master=307, nmax=6)
            gs, gd = net.gain_arrays()
            beta = np.sqrt(net.snr / (1 + gs * gs * net.snr)) * rng.uniform(
                0, 1, net.n
            )
            coherent = (gd * gs * beta).sum() ** 2
            for _ in range(20):
                theta = rng.uniform(0, 2 * math.pi, net.n)
                phased = np.abs((gd * gs * beta * np.exp(1j * theta)).sum()) ** 2
                assert phased <= coherent + 1e-9 * max(1.0, coherent)


class TestOverflowingSnr:
    """snr * (w.a)**2 can overflow float64 while every link SNR is finite."""

    def test_rate_at_gains_near_the_float_limit(self):
        # the exact rate is 1024.32377822674991573...
        net = Network(1.0, [1e154] * 3, [1e154] * 3)
        rep = af_optimize(net)
        assert rep.alpha.alpha.tolist() == [1.0, 1.0, 1.0]
        for rate in (af_rate(net, np.ones(3)), rep.rate):
            assert abs(rate - 1024.3237782267499) <= 2 * math.ulp(1024.0)
        assert rep.rate <= af_upper_bound(rate_table(net))[0]

    @pytest.mark.parametrize(
        "n,gain_s,want",
        [(3, 3.0, math.log2(28.0)), (4, 1.0, math.log2(5.0)), (4, 1e-5, math.log2(1 + 4e-10))],
    )
    @pytest.mark.parametrize("gain_d", [1e150, 1.3e154])
    def test_moderate_snr_across_the_overflow(self, n, gain_s, gain_d, want):
        # with all relays at full power the SNR tends to n * gain_s**2 * snr
        # as gain_d grows; at 1.3e154, snr * num**2 overflows in the first
        # case, den in the last, both in the middle one. log2(1 + SNR) keeps
        # its 1, which matters at a moderate SNR.
        net = Network(1.0, [gain_s] * n, [gain_d] * n)
        assert af_rate(net, np.ones(n)) == pytest.approx(want, rel=1e-9)
        assert af_optimize(net).rate == pytest.approx(want, rel=1e-9)

    def test_rows_that_fit_keep_their_bits(self):
        # relays 1-2 give a den past the float64 maximum, relays 3-4 an snr
        # * num**2 past it; the other rows fit and keep the expression's bits
        net = Network(1.0, [1e-5, 1e-5, 1e3, 1e3], [1.3e154, 1.3e154, 1e154, 1e154])
        rows = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1e-3, 0.0],
                [0.5, 0.0, 0.3, 0.2],
                [0.0, 0.0, 0.0, 0.0],
                [1e-3, 1e-3, 1e-3, 1e-3],
            ]
        )
        w, v = _af_weights(net)
        with np.errstate(over="ignore"):
            num = np.vecdot(rows, w)
            den = 1.0 + np.vecdot(rows * rows, v)
            x = net.snr * num * num
        assert den[0] == math.inf and x[0] < math.inf
        assert x[1] == math.inf and den[1] < math.inf
        fit = (x < math.inf) & (den < math.inf)
        assert fit.tolist() == [False, False, True, True, True, True]
        rates = af_rate_batch(net, rows)
        assert np.isfinite(rates).all()
        want = np.log2(1.0 + net.snr * num[fit] * num[fit] / den[fit])
        assert rates[fit].tobytes() == want.tobytes()


class TestOverflowingGainProducts:
    """A gain product can overflow while every snr * gain**2 fits."""

    def test_rate_and_cap_at_a_small_snr(self):
        # 60-digit values: rate 1016.92503453481172..., cap 1018.50999703553287...
        net = Network(1e-10, [1e158] * 2, [1e158] * 2)
        rep = af_optimize(net)
        assert rep.alpha.alpha.tolist() == [1.0, 1.0]
        for rate in (af_rate(net, [1.0, 1.0]), rep.rate):
            assert abs(rate - 1016.9250345348117) <= math.ulp(1016.0)
        bound, _ = af_upper_bound(rate_table(net))
        assert abs(bound - 1018.5099970355329) <= math.ulp(1018.0)
        assert rep.rate <= bound
        assert math.isfinite(af_rate(net, [1.0, 0.25]))

    @pytest.mark.parametrize(
        "snr,gs,gd",
        [
            # gain**2 overflows; a tiny gain_s whose snr * gain_s**2
            # underflows to 0 keeps its nonzero w = gain_d * gain_s * sqrt(snr)
            (1e-10, [1e158, 1e-160, 0.0, 3.0, 1e150], [1e158, 1e158, 2.0, 0.0, 1e-3]),
            # gain_s**2 * snr rounds past the float64 maximum, snr * gain_s**2 not
            (832597.5510533768, [1.4694006085960322e151, 1.0], [1.0, 2.0]),
        ],
    )
    def test_weights_match_the_definition(self, snr, gs, gd):
        w, v = _af_weights(Network(snr, gs, gd))
        with localcontext() as ctx:
            ctx.prec = 60
            s = Decimal(snr)
            scale = [s / (1 + Decimal(g) ** 2 * s) for g in gs]
            want_w = [
                float(Decimal(d) * Decimal(g) * c.sqrt()) for g, d, c in zip(gs, gd, scale)
            ]
            want_v = [float(Decimal(d) ** 2 * c) for d, c in zip(gd, scale)]
        assert w.tolist() == pytest.approx(want_w, rel=4e-16, abs=0.0)
        assert v.tolist() == pytest.approx(want_v, rel=4e-16, abs=0.0)

    def test_weights_that_fit_keep_their_expressions(self):
        nets = [random_net(i, 91, snr_hi=4.0) for i in range(200)]
        nets += [Network(1e-10, [1e154, 1.0], [2.0, 1e154]), Network(1e300, [1e-150], [0.0])]
        for net in nets:
            gs, gd = net.gain_arrays()
            scale = net.snr / (1.0 + gs * gs * net.snr)
            w, v = _af_weights(net)
            assert w.tobytes() == (gd * gs * np.sqrt(scale)).tobytes()
            assert v.tobytes() == (gd * gd * scale).tobytes()


class TestAfUpperBound:
    def test_single_relay_no_gain(self):
        bound, c1 = af_upper_bound(RateTable([2.5], [4.0]))
        assert c1 == 2.5
        assert bound == 2.5

    def test_staircase_k2(self):
        bound, c1 = af_upper_bound(tight_config(2, 1.0))
        assert c1 == 2.0
        assert bound == pytest.approx(2.0 + 2.0 * math.log2(3.0), abs=1e-12)

    def test_antisymmetric_pair(self):
        bound, c1 = af_upper_bound(RateTable([1, 2], [2, 1]))
        assert c1 == 1.0
        assert bound == 3.0

    def test_bounds_random_coefficients(self):
        for i in range(200):
            net = random_net(i, master=311)
            rng = np.random.default_rng(trial_seed(313, i))
            bound, _ = af_upper_bound(rate_table(net))
            rates = af_rate_batch(net, rng.uniform(0, 1, (50, net.n)))
            assert float(rates.max()) <= bound + 1e-9


class TestAfOptimize:
    def test_single_relay_stays_at_full_power(self):
        rep = af_optimize(unit_net(1))
        assert rep.alpha.alpha.tolist() == [1.0]
        assert rep.rate == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)

    def test_two_identical_relays_at_least_one_bit(self):
        rep = af_optimize(unit_net(2))
        assert rep.rate >= 1.0 - 1e-12

    def test_rate_is_the_rate_of_its_alpha(self):
        # the optimizer scores two rows in one batch; a rate must not depend
        # on its batch, or `af --alpha` would not reproduce `af --optimize`
        for i in range(300):
            net = random_net(i, master=331, nmax=64)
            rep = af_optimize(net)
            assert rep.rate == af_rate(net, rep.alpha.alpha)

    def test_never_below_start_and_never_above_cap(self):
        for i in range(80):
            net = random_net(i, master=317, nmax=6)
            start = af_rate_batch(net, np.ones((1, net.n)))[0]
            rep = af_optimize(net)
            assert rep.rate >= float(start) - 1e-12
            assert rep.rate <= af_upper_bound(rate_table(net))[0] + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(1e-2, 1e3),
        st.lists(
            st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0)), min_size=1, max_size=8
        ),
    )
    def test_property_between_full_power_and_cap(self, snr, gains):
        net = Network(snr, *zip(*gains))
        rate = af_optimize(net).rate
        assert rate <= af_upper_bound(rate_table(net))[0] + 1e-9
        assert rate >= af_rate(net, np.ones(net.n)) - 1e-12

    def test_matches_exhaustive_grid(self):
        # a global optimum dominates every grid point up to roundoff, while
        # the cap bounds it from above
        nets = [random_net(i, master=331, nmax=4) for i in range(30)]
        for net in nets + [gap_net(i) for i in range(60)]:
            rep = af_optimize(net)
            grid_rate, _ = af_grid_search(net, 21)
            assert rep.rate >= grid_rate - 1e-12
            assert rep.rate <= af_upper_bound(rate_table(net))[0] + 1e-9

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(23)
        for i in range(20):
            net = random_net(i, master=337, nmax=5)
            perm = rng.permutation(net.n)
            gs, gd = net.gain_arrays()
            permuted = Network(net.snr, gs[perm], gd[perm])
            a = af_optimize(net)
            b = af_optimize(permuted)
            assert a.rate == pytest.approx(b.rate, abs=1e-12)

    def test_dead_relays_pinned_to_zero(self):
        net = Network(4.0, [0.0, 1.0], [3.0, 1.0])
        rep = af_optimize(net)
        assert rep.alpha.alpha[0] == 0.0

    def test_alpha_has_kkt_form(self):
        # alpha_i = min(1, lam * w_i / v_i) with one lam = D / S, where
        # S = w.alpha and D = 1 + v.alpha**2; relays with a dead gain sit at 0
        for i in range(100):
            net = random_net(i, master=347, nmax=12)
            if i % 3 == 0:
                dead = (0.0, 2.0) if i % 2 else (1.5, 0.0)
                gs, gd = net.gain_arrays()
                net = Network(net.snr, [*gs, dead[0]], [*gd, dead[1]])
            gs, gd = net.gain_arrays()
            scale = net.snr / (1.0 + gs * gs * net.snr)
            w = gd * gs * np.sqrt(scale)
            v = gd * gd * scale
            alpha = af_optimize(net).alpha.alpha
            live = w > 0.0
            assert np.all(alpha[~live] == 0.0)
            lam = (1.0 + v @ (alpha * alpha)) / (w @ alpha)
            want = np.minimum(1.0, lam * w[live] / v[live])
            np.testing.assert_allclose(alpha[live], want, rtol=1e-12, atol=1e-12)

    def test_dominates_random_coefficients(self):
        rng = np.random.default_rng(349)
        for i in range(20):
            net = random_net(i, master=353, nmax=12)
            rep = af_optimize(net)
            rates = af_rate_batch(net, rng.uniform(0.0, 1.0, (10**4, net.n)))
            assert rep.rate >= float(rates.max()) - 1e-12

    def test_large_network_is_fast_and_capped(self):
        net = random_network(10**5, 4.0, 359, "rayleigh")
        started = time.perf_counter()
        rep = af_optimize(net)
        assert time.perf_counter() - started < 5.0
        start = af_rate_batch(net, np.ones((1, net.n)))[0]
        assert float(start) - 1e-9 <= rep.rate <= af_upper_bound(rate_table(net))[0]


class TestAfSnrBoundSides:
    def test_all_zero_fractions(self):
        lhs, rhs = af_snr_bound_sides([2.0, 3.0], [1.0, 4.0], [0.0, 0.0])
        assert rhs == 0.0
        assert lhs >= rhs

    def test_unit_point(self):
        lhs, rhs = af_snr_bound_sides([1.0], [1.0], [1.0])
        assert lhs == 1.0
        assert rhs == 0.5

    def test_mass_random_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            u_d = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            u_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            b = rng.uniform(0, 1, n)
            lhs, rhs = af_snr_bound_sides(u_d, u_s, b)
            assert lhs >= rhs - 1e-12

    def test_boundary_fractions_and_lopsided_snrs(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            u_d = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            u_s = np.exp(rng.uniform(math.log(1e2), math.log(1e6), n))
            b = rng.choice([0.0, 1.0], size=n)
            lhs, rhs = af_snr_bound_sides(u_d, u_s, b)
            assert lhs >= rhs - 1e-12

    def test_rejects_bad_domains(self):
        with pytest.raises(ValidationError):
            af_snr_bound_sides([1.0], [0.0], [1.0])
        with pytest.raises(ValidationError):
            af_snr_bound_sides([1.0], [1.0], [1.5])
        with pytest.raises(ValidationError):
            af_snr_bound_sides([1.0, 2.0], [1.0], [1.0])


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestValidationMessages:
    """Exact texts of every coefficient and SNR-domain check."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_alpha_non_finite(self, bad):
        with pytest.raises(ValidationError) as exc:
            AfCoefficients([0.5, bad, -1.0])
        assert str(exc.value) == "alpha entries must be finite"

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_alpha_out_of_range(self, bad):
        with pytest.raises(ValidationError) as exc:
            AfCoefficients([0.5, bad])
        assert str(exc.value) == "alpha entries must lie in [0, 1]"

    def test_alpha_empty(self):
        with pytest.raises(ValidationError) as exc:
            AfCoefficients([])
        assert str(exc.value) == "alpha must have at least one entry"

    def test_alpha_accepts_negative_zero(self):
        alpha = AfCoefficients([-0.0, 1.0]).alpha
        assert math.copysign(1.0, alpha[0]) == -1.0

    @pytest.mark.parametrize("bad", NON_FINITE + [-0.5, 1.5])
    def test_alphas_bad_entry(self, bad):
        with pytest.raises(ValidationError) as exc:
            af_rate_batch(unit_net(2), [[0.5, 0.5], [bad, 0.5]])
        # the same texts as AfCoefficients
        reason = "be finite" if bad in NON_FINITE else "lie in [0, 1]"
        assert str(exc.value) == f"alpha entries must {reason}"

    def test_alphas_shape(self):
        with pytest.raises(ValidationError) as exc:
            af_rate_batch(unit_net(2), [0.5, 0.5])
        assert str(exc.value) == "alphas must have shape (m, 2)"

    def test_alphas_accepts_negative_zero_and_no_rows(self):
        net = unit_net(2)
        assert af_rate_batch(net, [[-0.0, 1.0]])[0] == af_rate_batch(net, [[0.0, 1.0]])[0]
        assert af_rate_batch(net, np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", ["u_d", "u_s", "b"])
    def test_snr_sides_non_finite(self, bad, where):
        args = {"u_d": [1.0, 2.0], "u_s": [1.0, 2.0], "b": [0.5, 0.5]}
        args[where] = [1.0, bad]
        # a later domain fault does not mask the finiteness message
        args["b" if where != "b" else "u_d"] = [-1.0, 0.5]
        with pytest.raises(ValidationError) as exc:
            af_snr_bound_sides(**args)
        assert str(exc.value) == "inputs must be finite"

    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0])
    @pytest.mark.parametrize("where", ["u_d", "u_s"])
    def test_snr_sides_nonpositive(self, bad, where):
        args = {"u_d": [1.0, 2.0], "u_s": [1.0, 2.0], "b": [0.5, 1.5]}
        args[where] = [bad, 2.0]
        with pytest.raises(ValidationError) as exc:
            af_snr_bound_sides(**args)
        assert str(exc.value) == "u_d and u_s must be positive"

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_snr_sides_fraction_out_of_range(self, bad):
        with pytest.raises(ValidationError) as exc:
            af_snr_bound_sides([1.0, 2.0], [1.0, 2.0], [bad, 0.5])
        assert str(exc.value) == "b entries must lie in [0, 1]"

    def test_snr_sides_length(self):
        with pytest.raises(ValidationError) as exc:
            af_snr_bound_sides([1.0], [1.0, 2.0], [0.5])
        assert str(exc.value) == "u_d, u_s and b must share a positive length"

    def test_snr_sides_accept_negative_zero_fraction(self):
        assert af_snr_bound_sides([2.0], [3.0], [-0.0]) == af_snr_bound_sides(
            [2.0], [3.0], [0.0]
        )


class TestAfGridSearch:
    def test_grid_contains_corners(self):
        net = unit_net(2)
        rate, alpha = af_grid_search(net, 3)
        assert rate == pytest.approx(1.0, abs=1e-12)
        assert alpha.tolist() == [1.0, 1.0]

    def test_chunked_path_matches_flat_path(self):
        # n=5 at 11 points runs 11 blocks of 11**4 rows; compare against the
        # one block of n=4 by restricting the fifth coordinate to zero gain
        net = Network(2.0, [1.0] * 4 + [0.0], [1.0] * 4 + [0.0])
        rate5, _ = af_grid_search(net, 11)
        rate4, _ = af_grid_search(Network(2.0, [1.0] * 4, [1.0] * 4), 11)
        assert rate5 == pytest.approx(rate4, abs=1e-12)

    def test_blocks_hold_as_many_trailing_coordinates_as_fit(self, monkeypatch):
        # a block holds the trailing coordinates whose points**inner rows fit
        # in 2**16: 2 points over 19 relays once took 32,768 kernel calls of
        # 16 rows each. The pick is the first maximum of one call on the
        # whole grid, bit for bit, since each row is rated alone
        real, calls = kernels.af_rate_batch, []

        def counted(w, v, snr, alphas):
            calls.append(len(alphas))
            return real(w, v, snr, alphas)

        monkeypatch.setattr(kernels, "af_rate_batch", counted)
        for n, points, blocks in ((19, 2, 8), (7, 5, 5), (3, 41, 41), (1, 3, 1)):
            net = random_network(n, 1.0, n)
            calls.clear()
            rate, alpha = af_grid_search(net, points)
            assert calls == [points ** n // blocks] * blocks
            if points**n <= 10**5:
                levels = np.linspace(0.0, 1.0, points)
                grid = np.meshgrid(*[levels] * n, indexing="ij")
                grid = np.stack(grid, axis=-1).reshape(-1, n)
                rates = real(*_af_weights(net), net.snr, grid)
                best = int(np.argmax(rates))
                assert rate == rates[best] and alpha.tolist() == grid[best].tolist()

    def test_rejects_bad_points(self):
        with pytest.raises(ValidationError):
            af_grid_search(unit_net(1), 1)

    @pytest.mark.parametrize(
        "args, text",
        [
            # 21**7 rows took about two minutes before the guard
            ((random_network(7, 1.0, 0),), "21**7"),
            # 10**16 rows once ended in numpy's MemoryError
            ((random_network(4, 1.0, 0), 10**4), "10000**4"),
            ((unit_net(6), 11), "11**6"),
            ((unit_net(40), 2), "2**40"),
        ],
    )
    def test_refuses_grids_past_the_limit(self, args, text):
        with pytest.raises(SizeLimitError) as exc:
            af_grid_search(*args)
        assert str(exc.value) == f"a grid of {text} points exceeds the limit 1000000"

    def test_runs_a_grid_at_the_limit(self):
        # 10**6 rows
        rate, alpha = af_grid_search(unit_net(6), 10)
        assert rate == af_rate(unit_net(6), np.ones(6))
        assert alpha.tolist() == [1.0] * 6
