import math
import time

import numpy as np
import pytest

from diamondnet import (
    AfCoefficients,
    Network,
    RateTable,
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
            assert af_rate(net, row) == pytest.approx(float(expected), abs=1e-12)

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

    def test_never_below_start_and_never_above_cap(self):
        for i in range(80):
            net = random_net(i, master=317, nmax=6)
            start = af_rate_batch(net, np.ones((1, net.n)))[0]
            rep = af_optimize(net)
            assert rep.rate >= float(start) - 1e-12
            assert rep.rate <= rep.upper_bound + 1e-9

    def test_matches_exhaustive_grid(self):
        # a global optimum dominates every grid point up to roundoff, while
        # the cap bounds it from above
        for i in range(30):
            net = random_net(i, master=331, nmax=4)
            rep = af_optimize(net)
            grid_rate, _ = af_grid_search(net, 21)
            assert rep.rate >= grid_rate - 1e-12
            assert rep.rate <= rep.upper_bound + 1e-9

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
        assert float(start) - 1e-9 <= rep.rate <= rep.upper_bound


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
        # n=5 exercises the outer-loop chunking; compare against n<=4 logic
        # by restricting the fifth coordinate to zero gain
        net = Network(2.0, [1.0] * 4 + [0.0], [1.0] * 4 + [0.0])
        rate5, _ = af_grid_search(net, 5)
        rate4, _ = af_grid_search(Network(2.0, [1.0] * 4, [1.0] * 4), 5)
        assert rate5 == pytest.approx(rate4, abs=1e-12)

    def test_rejects_bad_points(self):
        with pytest.raises(ValidationError):
            af_grid_search(unit_net(1), 1)
