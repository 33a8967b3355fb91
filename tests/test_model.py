import copy
import math
import pickle

import numpy as np
import pytest

from diamondnet import (
    AfCoefficients,
    Cut,
    Network,
    RateTable,
    ValidationError,
    af_optimize,
    from_network,
    from_rates,
    network_from,
    point_capacity,
    random_network,
    rate_table,
    run_verification,
    tight_config,
    trial_seed,
)


class TestPointCapacity:
    def test_zero_gain_is_zero_rate(self):
        assert point_capacity(1.0, 0.0) == 0.0

    def test_unit_gain_unit_snr(self):
        assert point_capacity(1.0, 1.0) == 1.0

    def test_snr_fifteen(self):
        assert point_capacity(15.0, 1.0) == 4.0

    def test_monotone_in_gain_and_snr(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            snr = float(rng.uniform(0.1, 50.0))
            g = float(rng.uniform(0.0, 5.0))
            dg = float(rng.uniform(1e-6, 1.0))
            assert point_capacity(snr, g + dg) > point_capacity(snr, g) or g + dg == g
            assert point_capacity(snr + 1.0, g) >= point_capacity(snr, g)

    @pytest.mark.parametrize(
        "snr,gain",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.inf, 1.0), (1.0, math.nan)],
    )
    def test_rejects_bad_inputs(self, snr, gain):
        with pytest.raises(ValidationError):
            point_capacity(snr, gain)


class TestRateTable:
    def test_single_relay(self):
        net = Network(1.0, [1.0], [1.0])
        rt = rate_table(net)
        assert rt.r_s.tolist() == [1.0]
        assert rt.r_d.tolist() == [1.0]

    def test_two_stage_symmetric_instance(self):
        # gains t=4 on the first stage, t**2=16 on the second, snr=1
        net = Network(1.0, [4, 4], [16, 16])
        rt = rate_table(net)
        np.testing.assert_allclose(rt.r_s, math.log2(17.0), rtol=1e-14)
        np.testing.assert_allclose(rt.r_d, math.log2(257.0), rtol=1e-14)

    def test_matches_point_capacity_entrywise(self):
        rng = np.random.default_rng(11)
        gains = rng.uniform(0.0, 8.0, size=(6, 2))
        net = Network(3.5, gains[:, 0], gains[:, 1])
        rt = rate_table(net)
        for i, (gs, gd) in enumerate(gains):
            assert rt.r_s[i] == point_capacity(3.5, gs)
            assert rt.r_d[i] == point_capacity(3.5, gd)

    def test_rate_zero_iff_gain_zero(self):
        net = Network(2.0, [0.0], [1.5])
        rt = rate_table(net)
        assert rt.r_s[0] == 0.0
        assert rt.r_d[0] > 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            RateTable([1.0, 2.0], [1.0])

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError):
            RateTable([], [])
        with pytest.raises(ValidationError):
            RateTable([-0.1], [1.0])

    def test_arrays_are_frozen(self):
        rt = RateTable([1.0], [2.0])
        with pytest.raises(ValueError):
            rt.r_s[0] = 5.0


BAD_RATES = [
    (math.nan, "must be finite"),
    (math.inf, "must be finite"),
    (-math.inf, "must be finite"),
    (-0.5, "must be nonnegative"),
]


class TestRateTableMessages:
    """One bulk test passes good tables; a bad one gets the old message."""

    @pytest.mark.parametrize("bad,reason", BAD_RATES)
    def test_bad_entry_in_r_s(self, bad, reason):
        with pytest.raises(ValidationError) as exc:
            RateTable([1.0, bad, 2.0], [1.0, 1.0, 1.0])
        assert str(exc.value) == f"r_s entries {reason}"

    @pytest.mark.parametrize("bad,reason", BAD_RATES)
    def test_bad_entry_in_r_d(self, bad, reason):
        with pytest.raises(ValidationError) as exc:
            RateTable([1.0, 1.0], [bad, 2.0])
        assert str(exc.value) == f"r_d entries {reason}"

    @pytest.mark.parametrize("bad_s,reason", BAD_RATES)
    @pytest.mark.parametrize("bad_d,_", BAD_RATES)
    def test_r_s_message_wins(self, bad_s, reason, bad_d, _):
        with pytest.raises(ValidationError) as exc:
            RateTable([0.0, bad_s], [bad_d, 0.0])
        assert str(exc.value) == f"r_s entries {reason}"

    def test_nan_beside_a_negative_reports_finiteness(self):
        # the finiteness check runs first, as before the bulk test
        with pytest.raises(ValidationError) as exc:
            RateTable([-1.0, math.nan], [1.0, 1.0])
        assert str(exc.value) == "r_s entries must be finite"

    def test_negative_zero_is_accepted_and_kept(self):
        rt = RateTable([-0.0, 1.0], [2.0, -0.0])
        assert math.copysign(1.0, rt.r_s[0]) == -1.0
        assert math.copysign(1.0, rt.r_d[1]) == -1.0

    def test_largest_finite_rate_is_accepted(self):
        big = np.finfo(np.float64).max
        rt = RateTable([big], [0.0])
        assert rt.r_s[0] == big


class TestNetworkFrom:
    def test_zero_rate_gives_zero_gain(self):
        net = network_from(RateTable([0.0], [0.0]), snr=1.0)
        assert net.gain_arrays()[0][0] == 0.0

    def test_unit_rate_unit_snr(self):
        net = network_from(RateTable([1.0], [1.0]), snr=1.0)
        assert net.gain_arrays()[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_rate_three_snr_seven(self):
        # 2**3 - 1 = 7 and 7/7 = 1
        net = network_from(RateTable([3.0], [3.0]), snr=7.0)
        assert net.gain_arrays()[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            rt = RateTable(rng.uniform(0.0, 30.0, n), rng.uniform(0.0, 30.0, n))
            snr = float(rng.uniform(0.05, 100.0))
            back = rate_table(network_from(rt, snr))
            np.testing.assert_allclose(back.r_s, rt.r_s, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(back.r_d, rt.r_d, rtol=1e-12, atol=1e-12)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValidationError):
            network_from(RateTable([1.0], [1.0]), snr=0.0)


class TestNetworkValidation:
    def test_needs_a_relay(self):
        with pytest.raises(ValidationError):
            Network(1.0, [], [])

    def test_rejects_negative_gain(self):
        with pytest.raises(ValidationError):
            Network(1.0, [-1.0], [1.0])

    def test_rejects_infinite_gain(self):
        with pytest.raises(ValidationError):
            Network(1.0, [math.inf], [1.0])

    def test_zero_gain_relays_are_allowed(self):
        net = Network(1.0, [0.0], [0.0])
        assert net.n == 1


class TestArrayStorage:
    def test_arrays_and_lists_give_equal_networks(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 50):
            gains = rng.uniform(0.0, 6.0, size=(n, 2))
            gains[0, 0] = 0.0
            a = Network(2.5, gains[:, 0], gains[:, 1])
            b = Network(2.5, gains[:, 0].tolist(), gains[:, 1].tolist())
            assert a == b
            assert a.n == b.n == n
            assert rate_table(a) == rate_table(b)
        one = Network(1.0, [1.0, 2.0], [3.0, 4.0])
        assert one != Network(1.0, [1.0, 2.0], [3.0, 4.5])
        assert one != Network(1.5, [1.0, 2.0], [3.0, 4.0])

    def test_gain_arrays_are_stored_read_only_arrays(self):
        gs = np.array([1.0, 2.0])
        net = Network(1.0, gs, [3.0, 4.0])
        gs[0] = 9.0  # the network holds its own copy
        first = net.gain_arrays()
        assert first[0].tolist() == [1.0, 2.0]
        assert first[0].dtype == np.float64
        second = net.gain_arrays()
        assert first[0] is second[0] and first[1] is second[1]
        with pytest.raises(ValueError):
            first[0][0] = 5.0

    def test_immutable_and_not_hashable(self):
        net = Network(1.0, [1.0], [2.0])
        with pytest.raises(AttributeError):
            net.snr = 3.0
        with pytest.raises(TypeError):
            hash(net)

    def test_copies_and_pickles_by_value(self):
        net = Network(3.0, [0.5, 2.0], [1.0, 0.0])
        assert copy.deepcopy(net) == net
        assert pickle.loads(pickle.dumps(net)) == net

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            Network(1.0, [1.0, 2.0], [1.0])


# One value of each immutable type; each builds a fresh, equal value.
VALUES = {
    "RateTable": lambda: RateTable([1.0, -0.0], [2.5, 3.0]),
    "Network": lambda: Network(3.0, [0.5, 2.0], [1.0, 0.0]),
    "AfCoefficients": lambda: AfCoefficients([0.5, 0.25]),
    "AfReport": lambda: af_optimize(Network(3.0, [0.5, 2.0], [1.0, 0.7])),
    "NetworkFile-gains": lambda: from_network(Network(2.0, [1.5], [0.25]), "g"),
    "NetworkFile-rates": lambda: from_rates(RateTable([1.0], [3.0]), 4.0, "r"),
}

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def frozen_arrays(value):
    """Every array a value of ``VALUES`` holds, however deep."""
    if isinstance(value, (RateTable, AfCoefficients)):
        return [getattr(value, name) for name in type(value).__slots__]
    if isinstance(value, Network):
        return list(value.gain_arrays())
    if hasattr(value, "alpha"):  # AfReport
        return frozen_arrays(value.alpha)
    return frozen_arrays(value.network or value.rates)  # NetworkFile


class TestValueSemantics:
    """Copies and pickles rebuild through the constructor and compare equal."""

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
    @pytest.mark.parametrize("kind", VALUES)
    def test_round_trip_is_equal_and_read_only(self, kind, clone):
        value = VALUES[kind]()
        back = clone(value)
        assert type(back) is type(value)
        assert back == value and not back != value
        assert back == VALUES[kind]()
        arrays = frozen_arrays(back)
        assert arrays and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("kind", VALUES)
    def test_unequal_values_and_types(self, kind):
        value = VALUES[kind]()
        assert value != object()
        for other in VALUES:
            if other != kind:
                assert value != VALUES[other]()

    def test_equality_is_by_every_field(self):
        assert RateTable([1.0], [2.0]) != RateTable([1.0], [2.5])
        assert AfCoefficients([0.5, 0.25]) != AfCoefficients([0.5, 0.5])
        assert AfCoefficients([0.5]) != AfCoefficients([0.5, 0.5])

    @pytest.mark.parametrize("kind", ["RateTable", "Network", "AfCoefficients"])
    def test_immutable_and_not_hashable(self, kind):
        value = VALUES[kind]()
        with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
            value.n = 3
        with pytest.raises(TypeError):
            hash(value)

    def test_reprs(self):
        kinds = ("RateTable", "Network", "AfCoefficients")
        assert [repr(VALUES[kind]()) for kind in kinds] == [
            "RateTable(r_s=[1.0, -0.0], r_d=[2.5, 3.0])",
            "Network(snr=3.0, gain_s=[0.5, 2.0], gain_d=[1.0, 0.0])",
            "AfCoefficients(alpha=[0.5, 0.25])",
        ]


class TestValidationMessages:
    """The message names the first bad relay; checks run gains, snr, overflow."""

    @pytest.mark.parametrize(
        "gain_s,gain_d,message",
        [
            ([1.0, -2.0, -3.0], [1.0, 1.0, 1.0], "gain_s must be nonnegative, got -2.0"),
            ([1.0, 1.0, -3.0], [1.0, -0.5, 1.0], "gain_d must be nonnegative, got -0.5"),
            ([1.0, -1.0], [math.inf, 1.0], "gain_d must be finite, got inf"),
            ([1.0, -math.inf], [1.0, 1.0], "gain_s must be finite, got -inf"),
            ([1.0, math.nan], [-1.0, 1.0], "gain_d must be nonnegative, got -1.0"),
            ([1.0, 1.0], [1.0, math.nan], "gain_d must be finite, got nan"),
            ([1.0, 1.0, 1e200], [1.0, 1e200, 1.0], "relay 2: snr * gain_d**2 overflows"),
            ([1.0, 1e200], [1.0, 1e200], "relay 2: snr * gain_s**2 overflows"),
        ],
    )
    def test_gain_messages(self, gain_s, gain_d, message):
        with pytest.raises(ValidationError) as exc:
            Network(2.0, gain_s, gain_d)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "snr,message",
        [
            (0.0, "snr must be positive, got 0.0"),
            (-1.0, "snr must be positive, got -1.0"),
            (math.nan, "snr must be finite, got nan"),
            (math.inf, "snr must be finite, got inf"),
        ],
    )
    def test_snr_messages(self, snr, message):
        with pytest.raises(ValidationError) as exc:
            Network(snr, [1.0], [1.0])
        assert str(exc.value) == message
        # gains are checked before snr, the relay count after it
        with pytest.raises(ValidationError, match="gain_s must be nonnegative"):
            Network(snr, [-1.0], [1.0])
        with pytest.raises(ValidationError) as exc:
            Network(snr, [], [])
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Network("x", [1.0], [1.0]), "snr must be a real number, got 'x'"),
            (
                lambda: Network(1.0, ["a"], [1.0]),
                "gain_s entries must be real numbers: could not convert string to float: 'a'",
            ),
            (
                lambda: RateTable(["a"], [1.0]),
                "r_s entries must be real numbers: could not convert string to float: 'a'",
            ),
        ],
    )
    def test_non_numeric_messages(self, build, message):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message

    def test_overflow_depends_on_snr(self):
        Network(1.0, [1e150], [1.0])
        with pytest.raises(ValidationError, match="relay 1: snr \\* gain_s\\*\\*2 overflows"):
            Network(1e10, [1e150], [1.0])


# Each bad scalar argument, with the message that names it; none may emit a
# numpy warning on the way (the suite turns RuntimeWarning into an error).
BAD_ARGUMENTS = [
    (
        lambda: random_network(3, 1.0, 0, sigma="x"),
        "sigma must be a real number, got 'x'",
    ),
    (
        lambda: random_network(3, 1.0, 0, "loguniform", lo="x"),
        "lo must be a real number, got 'x'",
    ),
    (lambda: run_verification(True), "trials must be a positive integer, got True"),
    (
        lambda: run_verification(1, nmax=True),
        "nmax must be a positive integer, got True",
    ),
    (lambda: run_verification(1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: run_verification(1, seed="x"), "seed must be an integer, got 'x'"),
    (
        lambda: run_verification(1, tolerance="x"),
        "tolerance must be a real number, got 'x'",
    ),
    (lambda: trial_seed("x", 0), "master_seed must be an integer, got 'x'"),
    (lambda: trial_seed(1.5, 0), "master_seed must be an integer, got 1.5"),
    (lambda: Cut.from_mask(1.5), "cut bitmask must be a nonnegative integer, got 1.5"),
    (
        lambda: Cut.from_mask(True),
        "cut bitmask must be a nonnegative integer, got True",
    ),
    (
        lambda: point_capacity(1e308, 1e308),
        "snr * gain**2 overflows: snr 1e+308, gain 1e+308",
    ),
    (lambda: point_capacity(10**400, 1.0), "snr exceeds the float64 range"),
    (
        lambda: tight_config(2, 1e308),
        "base_rate 1e+308 is too large for k = 2: (k + 1) * base_rate overflows",
    ),
    (lambda: tight_config(2, math.inf), "base_rate must be finite, got inf"),
    (
        lambda: tight_config(10**400),
        "k is too large: k + 1 relays exceed numpy's array size",
    ),
    (
        lambda: tight_config(2**60, 1e308),
        "k is too large: k + 1 relays exceed numpy's array size",
    ),
    (
        lambda: random_network(3, 1.0, 0, sigma=1e308),
        "sigma 1e+308 is too large: the Rayleigh draws overflow",
    ),
    (
        lambda: network_from(RateTable([2000.0], [1.0]), 1.0),
        "rates above 1023.0 bits/s/Hz cannot be mapped back to linear SNRs "
        "in float64",
    ),
    (
        lambda: network_from(RateTable([1.0], [1.0]), 1e-320),
        "snr 1e-320 is too small for these rates: (2**r - 1) / snr overflows",
    ),
]


class TestArgumentRules:
    """Integers are Python or numpy ints, never bool; rates and SNRs are finite."""

    @pytest.mark.parametrize("call,message", BAD_ARGUMENTS)
    def test_bad_argument_raises_validation_error(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    def test_numpy_integers_and_negative_seeds_are_accepted(self):
        assert trial_seed(np.int64(-1), np.int32(0)) == trial_seed(2**64 - 1, 0)
        assert Cut.from_mask(np.int64(5)) == Cut([1, 3])
        report = run_verification(np.int64(1), nmax=np.int64(3), seed=-1)
        assert report.trials == 1 and report.ok
