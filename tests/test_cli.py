import json
import math
import re

import numpy as np
import pytest

from diamondnet import Network, af_upper_bound, cli, from_network, rate_table
from diamondnet.cli import main
from diamondnet.generate import DISTRIBUTIONS
from diamondnet.selection import GAP_MODELS
from diamondnet.verify import KMODES, Failure, VerifyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(constant):
    raise AssertionError(f"{constant} is not JSON")


@pytest.fixture
def stair_file(tmp_path):
    path = tmp_path / "stair.txt"
    code = main(["tight", "2", "-o", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture
def gains_file(tmp_path, capsys):
    path = tmp_path / "net.txt"
    code = main(["gen", "3", "--snr", "2.0", "--seed", "7", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestOmegaCommand:
    def test_staircase_file(self, capsys, stair_file):
        code, out, _ = run_cli(capsys, "omega", stair_file)
        assert code == 0
        assert "omega = 3" in out

    def test_brute_cross_check(self, capsys, gains_file):
        code, out, _ = run_cli(capsys, "omega", gains_file, "--brute", "--counts")
        assert code == 0
        assert "oracle_agrees = true" in out
        assert "comparisons = " in out

    def test_machine_format(self, capsys, stair_file):
        code, out, _ = run_cli(capsys, "omega", stair_file, "--format", "machine")
        payload = json.loads(out)
        assert payload["omega"] == 3.0
        assert payload["n"] == 3

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "omega", "/nonexistent/net.txt")
        assert code == 2
        assert "error" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"snr = 2\nrelay = 1 \xff\n")
        code, out, err = run_cli(capsys, "omega", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8 text" in err


class TestErrors:
    def test_repeated_snr_exits_2(self, capsys, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("snr = 1\nsnr = 2\nrelay = 1 1\n")
        code, out, err = run_cli(capsys, "omega", str(path))
        assert (code, out, err) == (2, "", "error: line 2: duplicate 'snr'\n")

    @pytest.mark.parametrize("number", ["1_0", "\u0661"])
    def test_number_that_float_reads_otherwise_exits_2(self, capsys, tmp_path, number):
        # float() takes '1_0' for 10.0 and the Arabic-Indic digit for 1.0
        path = tmp_path / "net.txt"
        path.write_text(f"rate = 1 2\nrate = {number} 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "omega", str(path))
        message = "is not a number: '_' and non-ASCII characters are not allowed"
        assert (code, out, err) == (2, "", f"error: line 2: {number!r} {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["tight", "2", "1_0"], "argument rate: invalid float value: '1_0'"),
        (["gen", "\u0661\u0662"], "argument n: invalid int value: '\u0661\u0662'"),
        (["verify", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
    ])
    def test_argument_that_int_or_float_reads_otherwise_exits_2(
        self, capsys, argv, message
    ):
        # int() and float() take the same characters as in a file
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"diamondnet {argv[0]}: error: {message}"]

    def test_alpha_that_float_reads_otherwise_exits_2(self, capsys, gains_file):
        code, out, err = run_cli(capsys, "af", gains_file, "--alpha", "0_1,1,1")
        message = "'0_1' is not a number: '_' and non-ASCII characters are not allowed"
        assert (code, out, err) == (2, "", f"error: bad --alpha value: {message}\n")

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_exits_2(self, capsys, monkeypatch, exc, message):
        # stands in for the real call, which asks numpy for terabytes: on a
        # host that overcommits memory that would not fail fast
        def tight_config(k, rate):
            raise exc

        monkeypatch.setattr(cli, "tight_config", tight_config)
        code, out, err = run_cli(capsys, "tight", "100000000000")
        assert (code, out, err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("argv,text,message", [
        (
            ["tight", "2", "1e308"],
            None,
            "base_rate 1e+308 is too large for k = 2: (k + 1) * base_rate overflows",
        ),
        (
            ["af"],
            "snr = 1.0\nrate = 2000 1\n",
            "rates above 1023.0 bits/s/Hz cannot be mapped back to linear SNRs "
            "in float64",
        ),
        (
            ["af"],
            "snr = 1e-320\nrate = 1 1\n",
            "snr 1e-320 is too small for these rates: (2**r - 1) / snr overflows",
        ),
    ])
    def test_overflow_exits_2_with_one_error_line(
        self, capsys, tmp_path, argv, text, message
    ):
        if text is not None:
            path = tmp_path / "rates.txt"
            path.write_text(text)
            argv = [*argv, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSelectCommand:
    def test_staircase_pick(self, capsys, stair_file):
        code, out, _ = run_cli(capsys, "select", stair_file, "2", "--verify")
        assert code == 0
        assert "gamma = {2}" in out
        assert "omega_gamma = 2" in out
        assert "verified = true" in out

    def test_antisymmetric_single_relay(self, capsys, tmp_path):
        path = tmp_path / "anti.txt"
        path.write_text("rate = 1 2\nrate = 2 1\n")
        code, out, _ = run_cli(capsys, "select", str(path), "1")
        assert code == 0
        assert "gamma = {1}" in out
        assert "ratio = 0.5" in out

    def test_k_beyond_n(self, capsys, stair_file):
        code, out, _ = run_cli(capsys, "select", stair_file, "9")
        assert code == 0
        assert "gamma = {1, 2, 3}" in out

    def test_verify_rejects_k_past_the_array_size(self, capsys, stair_file):
        code, out, err = run_cli(capsys, "select", stair_file, "1" + "0" * 400, "--verify")
        assert (code, out) == (2, "")
        assert err == "error: k is too large: k must be below 1152921504606846975\n"

    def test_staircase_at_huge_rates(self, capsys, tmp_path):
        # 2 * omega overflows here; the thresholds must not. Cut sums pass
        # the float64 range: inf, with no warning (the suite turns
        # RuntimeWarning into an error), for both oracles.
        path = tmp_path / "huge.txt"
        assert main(["tight", "2", "5e307", "-o", str(path)]) == 0
        code, out, _ = run_cli(capsys, "select", str(path), "2", "--format", "machine")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == [2]
        assert payload["omega_gamma"] == 1e308
        code, out, _ = run_cli(capsys, "omega", str(path), "--brute", "--format", "machine")
        assert code == 0
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["oracle_agrees"] is True
        assert payload["omega"] == payload["brute_omega"] == 1.5e308
        code, out, _ = run_cli(
            capsys, "select", str(path), "2", "--verify", "--format", "machine"
        )
        assert code == 0
        assert json.loads(out, parse_constant=reject_constant)["verified"] is True


class TestBoundsCommand:
    def test_two_stage_symmetric_instance(self, capsys, tmp_path):
        path = tmp_path / "fig.txt"
        path.write_text("snr = 1.0\nrelay = 4 16\nrelay = 4 16\n")
        code, out, _ = run_cli(capsys, "bounds", str(path), "--format", "machine")
        payload = json.loads(out)
        assert payload["upper"] == pytest.approx(math.log2(33), abs=1e-9)
        assert payload["omega"] == pytest.approx(math.log2(17), abs=1e-9)
        assert payload["upper"] - payload["omega"] <= 1.0

    def test_all_zero_network(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("rate = 0 0\nrate = 0 0\n")
        code, out, _ = run_cli(capsys, "bounds", str(path), "--format", "machine")
        payload = json.loads(out)
        assert payload["omega"] == 0.0
        assert payload["lower"] == 0.0
        assert payload["upper"] == 0.0
        assert payload["baseline"] == 0.0

    def test_rates_whose_linear_snrs_overflow(self, capsys, tmp_path):
        # 2 * (2**1023 - 1) is past the float64 maximum: the empty cut's
        # bracket is log2(1 + 2 * (2**1023 - 1)), about 1024, not 2046
        path = tmp_path / "r.txt"
        path.write_text("rate = 1023 1023\nrate = 1023 1023\n")
        code, out, _ = run_cli(capsys, "bounds", str(path), "--format", "machine")
        payload = json.loads(out, parse_constant=reject_constant)
        assert code == 0
        assert (payload["omega"], payload["gap"]) == (1023.0, 2.0)
        assert payload["lower"] == payload["upper"] == 1024.0


class TestAfCommand:
    def test_unit_relay(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("snr = 1.0\nrelay = 1 1\n")
        code, out, _ = run_cli(capsys, "af", str(path), "--alpha", "1")
        assert code == 0
        assert "af_rate = 0.415037" in out
        assert "within_bound = true" in out

    def test_zero_alpha(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("snr = 1.0\nrelay = 1 1\n")
        code, out, _ = run_cli(capsys, "af", str(path), "--alpha", "0")
        assert code == 0
        assert "af_rate = 0\n" in out

    def test_optimize_random_net(self, capsys, gains_file):
        code, out, _ = run_cli(capsys, "af", gains_file, "--optimize")
        assert code == 0
        assert "within_bound = true" in out

    def test_optimize_at_gains_near_the_float_limit(self, capsys, tmp_path):
        # snr * (w.a)**2 overflows although every link SNR is finite; the
        # rate is finite, under the cap, and the JSON strict
        path = tmp_path / "big.txt"
        path.write_text("snr = 1.0\n" + "relay = 1e154 1e154\n" * 3)
        code, out, _ = run_cli(capsys, "af", str(path), "--optimize", "--format", "machine")
        payload = json.loads(out, parse_constant=reject_constant)
        assert code == 0
        assert payload["within_bound"] is True
        assert abs(payload["af_rate"] - 1024.3237782267499) <= 2 * math.ulp(1024.0)

    @pytest.mark.parametrize("mode", [(), ("--optimize",)])
    def test_gain_products_past_the_float_limit(self, capsys, tmp_path, mode):
        # gain**2 overflows below snr = 1 though snr * gain**2 fits; both
        # modes exit 0 with strict JSON and no warning
        path = tmp_path / "small_snr.txt"
        path.write_text("snr = 1e-10\nrelay = 1e158 1e158\nrelay = 1e158 1e158\n")
        code, out, _ = run_cli(capsys, "af", str(path), *mode, "--format", "machine")
        assert code == 0
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["within_bound"] is True
        assert abs(payload["af_rate"] - 1016.9250345348117) <= math.ulp(1016.0)
        assert abs(payload["upper_bound"] - 1018.5099970355329) <= math.ulp(1018.0)

    def test_rates_file_without_snr_fails(self, capsys, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("rate = 1 1\n")
        code, _, err = run_cli(capsys, "af", str(path))
        assert code == 2
        assert "snr" in err

    def test_rates_file_with_snr_works(self, capsys, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("snr = 1.0\nrate = 1 1\n")
        code, out, _ = run_cli(capsys, "af", str(path), "--alpha", "1")
        assert code == 0
        assert "af_rate = 0.415037" in out

    def test_bad_alpha_string(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("snr = 1.0\nrelay = 1 1\n")
        code, _, err = run_cli(capsys, "af", str(path), "--alpha", "zzz")
        assert code == 2

    @staticmethod
    def cap_networks():
        """Seeded gains-form networks with dead relays and dead links, then
        ones with snr < 1 and gains whose squares overflow float64, which
        take ``_af_weights``' overflow branch."""
        rng = np.random.default_rng(16)
        for i in range(40):
            n = int(rng.integers(1, 13))
            snr = float(10.0 ** rng.uniform(-3.0, 6.0))
            gains = rng.rayleigh(1.0, (2, n)) if i % 2 else np.exp(rng.uniform(-5, 5, (2, n)))
            gains[:, rng.random(n) < 0.2] = 0.0  # dead relays
            gains[rng.random((2, n)) < 0.1] = 0.0  # dead links
            yield Network(snr, *gains)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            snr = float(10.0 ** rng.uniform(-12.0, -4.0))
            gains = rng.rayleigh(1.0, (2, n)) * 10.0 ** rng.uniform(150.0, 155.0, (2, n))
            gains[:, rng.random(n) < 0.2] = 0.0
            gains[rng.random((2, n)) < 0.1] = 0.0
            gains[:, 0] = 2e154  # 2e154**2 overflows
            yield Network(snr, *gains)

    def test_every_mode_prints_the_cap_of_the_rate_table(self, capsys, tmp_path):
        path = str(tmp_path / "net.txt")

        def af(*mode):
            code, out, _ = run_cli(capsys, "af", path, *mode, "--format", "machine")
            assert code == 0
            return json.loads(out, parse_constant=reject_constant)

        for net in self.cap_networks():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(from_network(net).dumps())
            want = [x.hex() for x in af_upper_bound(rate_table(net))]
            opt = af("--optimize")
            given = af("--alpha", ",".join(map(repr, opt["alpha"])))
            assert given["af_rate"] == opt["af_rate"]
            for payload in (opt, given, af()):
                assert [payload["upper_bound"].hex(), payload["c1"].hex()] == want

    def test_optimize_and_alpha_exclude_each_other(self, capsys, gains_file):
        with pytest.raises(SystemExit) as exc:
            main(["af", gains_file, "--optimize", "--alpha", "1,1,1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --alpha: not allowed with argument --optimize" in captured.err


class TestGenCommand:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "4", "--seed", "9", "--snr", "3.0")
        code2, out2, _ = run_cli(capsys, "gen", "4", "--seed", "9", "--snr", "3.0")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_loguniform_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "50", "--dist", "loguniform", "--lo", "0.5", "--hi", "2.0"
        )
        assert code == 0
        for line in out.splitlines():
            if line.startswith("relay"):
                gs, gd = map(float, line.split("=")[1].split())
                assert 0.5 <= gs <= 2.0 and 0.5 <= gd <= 2.0

    def test_output_parses_back(self, capsys, gains_file):
        code, out, _ = run_cli(capsys, "omega", gains_file, "--brute")
        assert code == 0
        assert "oracle_agrees = true" in out

    def test_rejects_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "3", "--sigma", "-1")
        assert code == 2
        code, _, err = run_cli(capsys, "gen", "3", "--seed", "-1")
        assert code == 2
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_huge_sigma_names_sigma(self, capsys):
        code, out, err = run_cli(capsys, "gen", "3", "--sigma", "1e308")
        assert code == 2
        assert out == ""
        assert err == (
            "error: sigma 1e+308 is too large: the Rayleigh draws overflow\n"
        )

    @pytest.mark.parametrize("n", ["100000000000000000000", "1152921504606846975"])
    def test_n_past_numpys_array_size_is_an_error(self, capsys, n):
        code, out, err = run_cli(capsys, "gen", n)
        assert code == 2
        assert out == ""
        assert err == "error: n is too large: 2 * n gains exceed numpy's array size\n"


class TestTightCommand:
    def test_emits_rates_form(self, capsys):
        code, out, _ = run_cli(capsys, "tight", "3")
        assert code == 0
        assert "rate = 1.0 4.0" in out
        assert out.count("rate = ") == 4

    def test_omega_of_tight_file(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        main(["tight", "3", "-o", str(path)])
        code, out, _ = run_cli(capsys, "omega", str(path))
        assert "omega = 4" in out

    def test_brute_oracle_agrees_on_tight_file(self, capsys, stair_file):
        code, out, _ = run_cli(capsys, "omega", stair_file, "--brute")
        assert code == 0
        assert "oracle_agrees = true" in out


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "25", "--nmax", "8", "--seed", "42"
        )
        assert code == 0
        assert "failures = 0" in out

    def test_tolerance_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tolerance", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_machine_output_deterministic_except_elapsed(self, capsys):
        args = ("verify", "--trials", "10", "--seed", "3", "--format", "machine")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b


class TestParser:
    def test_choice_lists_are_the_library_tuples(self):
        (commands,) = (
            a for a in cli.build_parser()._actions if a.dest == "command"
        )

        def choices(command, dest):
            (action,) = (
                a for a in commands.choices[command]._actions if a.dest == dest
            )
            return action.choices

        assert choices("gen", "dist") == DISTRIBUTIONS
        assert choices("verify", "kmode") == KMODES
        assert choices("select", "gap_model") == GAP_MODELS


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, gains_file):
        for argv in (
            ("omega", gains_file, "--brute", "--counts"),
            ("select", gains_file, "2", "--verify"),
            ("bounds", gains_file),
            ("af", gains_file, "--optimize"),
        ):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2


# Every subcommand's exact stdout and exit code on two fixed files, in text
# and machine form: any intended output change must update these pins.
GOLDEN = [
    ("omega {stair} --brute --counts", 0, """\
n = 3
omega = 3
argmin_cut = {}
comparisons = 5
brute_omega = 3
oracle_agrees = true
brute_comparisons = 21
"""),
    ("omega {stair} --brute --counts --format machine", 0,
     '{"n": 3, "omega": 3.0, "argmin_cut": [], "comparisons": 5, "brute_omega": 3.0, '
     '"oracle_agrees": true, "brute_comparisons": 21}\n'),
    ("select {stair} 2 --verify", 0, """\
n = 3
k = 2
omega = 3
gamma = {2}
omega_gamma = 2
ratio = 0.666667
comparisons = 6
certificate = anchor_bin none; bins ()
guaranteed_rate[nnc] = 0
verified = true
"""),
    ("select {stair} 2 --verify --format machine", 0,
     '{"n": 3, "k": 2, "omega": 3.0, "gamma": [2], "omega_gamma": 2.0, '
     '"ratio": 0.6666666666666666, "comparisons": 6, '
     '"certificate": {"anchor_bin": null, "bins": []}, "gap_model": "nnc", '
     '"guaranteed_rate": 0.0, "verified": true}\n'),
    ("bounds {stair}", 0, """\
n = 3
omega = 3
lower = 3.32193
upper = 3.32193
gap = 3.16993
baseline = 0
best_k[nnc] = 1 (rate 0)
best_k[optimized] = 1 (rate 0)
best_k[routing] = 1 (rate 0)
k nnc optimized
1 0 0
2 0 0
3 0 0
"""),
    ("bounds {stair} --format machine", 0,
     '{"n": 3, "omega": 3.0, "lower": 3.321928094887362, "upper": 3.321928094887362, '
     '"gap": 3.169925001442312, "baseline": 0.0, "tradeoff": '
     '{"nnc": {"best_k": 1, "entries": [[1, 0.0], [2, 0.0], [3, 0.0]]}, '
     '"optimized": {"best_k": 1, "entries": [[1, 0.0], [2, 0.0], [3, 0.0]]}, '
     '"routing": {"best_k": 1, "entries": [[1, 0.0]]}}}\n'),
    # a rates file has no snr, so af refuses it: exit 2, nothing on stdout
    ("af {stair}", 2, ""),
    ("af {stair} --format machine", 2, ""),
    ("af {stair} --optimize", 2, ""),
    ("af {stair} --optimize --format machine", 2, ""),
    ("omega {gains} --brute --counts", 0, """\
n = 6
omega = 2.7335
argmin_cut = {6}
comparisons = 11
brute_omega = 2.7335
oracle_agrees = true
brute_comparisons = 189
"""),
    ("omega {gains} --brute --counts --format machine", 0,
     '{"n": 6, "omega": 2.7334968083211284, "argmin_cut": [6], "comparisons": 11, '
     '"brute_omega": 2.7334968083211284, "oracle_agrees": true, '
     '"brute_comparisons": 189}\n'),
    ("select {gains} 2 --verify", 0, """\
n = 6
k = 2
omega = 2.7335
gamma = {5}
omega_gamma = 2.72979
ratio = 0.998642
comparisons = 12
certificate = anchor_bin none; bins ()
guaranteed_rate[nnc] = 0
verified = true
"""),
    ("select {gains} 2 --verify --format machine", 0,
     '{"n": 6, "k": 2, "omega": 2.7334968083211284, "gamma": [5], '
     '"omega_gamma": 2.729785922922521, "ratio": 0.998642440193341, "comparisons": 12, '
     '"certificate": {"anchor_bin": null, "bins": []}, "gap_model": "nnc", '
     '"guaranteed_rate": 0.0, "verified": true}\n'),
    ("bounds {gains}", 0, """\
n = 6
omega = 2.7335
lower = 3.3934
upper = 3.3934
gap = 5.16993
baseline = 0
best_k[nnc] = 1 (rate 0)
best_k[optimized] = 1 (rate 0)
best_k[routing] = 1 (rate 0)
k nnc optimized
1 0 0
2 0 0
3 0 0
4 0 0
5 0 0
6 0 0
"""),
    ("bounds {gains} --format machine", 0,
     '{"n": 6, "omega": 2.7334968083211284, "lower": 3.3934016895278933, '
     '"upper": 3.3934016895278933, "gap": 5.169925001442312, "baseline": 0.0, '
     '"tradeoff": {"nnc": {"best_k": 1, "entries": [[1, 0.0], [2, 0.0], [3, 0.0], '
     '[4, 0.0], [5, 0.0], [6, 0.0]]}, "optimized": {"best_k": 1, "entries": '
     '[[1, 0.0], [2, 0.0], [3, 0.0], [4, 0.0], [5, 0.0], [6, 0.0]]}, '
     '"routing": {"best_k": 1, "entries": [[1, 0.0]]}}}\n'),
    ("af {gains}", 0, """\
n = 6
mode = given
alpha = [1, 1, 1, 1, 1, 1]
af_rate = 3.06571
c1 = 2.72979
upper_bound = 7.89971
within_bound = true
"""),
    ("af {gains} --format machine", 0,
     '{"n": 6, "mode": "given", "alpha": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], '
     '"af_rate": 3.065711182576132, "c1": 2.729785922922521, '
     '"upper_bound": 7.899710924364833, "within_bound": true}\n'),
    ("af {gains} --optimize", 0, """\
n = 6
mode = optimized
alpha = [1, 1, 0.69164, 1, 1, 1]
af_rate = 3.09321
c1 = 2.72979
upper_bound = 7.89971
within_bound = true
"""),
    ("af {gains} --optimize --format machine", 0,
     '{"n": 6, "mode": "optimized", "alpha": [1.0, 1.0, 0.6916402877569547, 1.0, 1.0, 1.0], '
     '"af_rate": 3.0932144390197203, "c1": 2.729785922922521, '
     '"upper_bound": 7.899710924364833, "within_bound": true}\n'),
    ("gen 6 --seed 0", 0, """\
label = rayleigh-n6-seed0
snr = 1.0
relay = 1.1661319856421997 1.4280035724506186
relay = 0.19903096537501572 0.0673695284416951
relay = 1.049135713469948 1.8055140180338591
relay = 1.1606747629437213 1.2290657897975936
relay = 2.3735146846294106 3.4807335664892745
relay = 2.5637582795161262 0.05074939083029151
"""),
    ("tight 2", 0, """\
label = staircase-k2
rate = 1.0 3.0
rate = 2.0 2.0
rate = 3.0 1.0
"""),
    ("omega {stair}", 0, """\
n = 3
omega = 3
argmin_cut = {}
"""),
    ("omega {stair} --format machine", 0,
     '{"n": 3, "omega": 3.0, "argmin_cut": []}\n'),
    ("omega {stair} --counts", 0, """\
n = 3
omega = 3
argmin_cut = {}
comparisons = 5
"""),
    ("omega {stair} --counts --format machine", 0,
     '{"n": 3, "omega": 3.0, "argmin_cut": [], "comparisons": 5}\n'),
    ("omega {stair} --brute", 0, """\
n = 3
omega = 3
argmin_cut = {}
brute_omega = 3
oracle_agrees = true
"""),
    ("omega {stair} --brute --format machine", 0,
     '{"n": 3, "omega": 3.0, "argmin_cut": [], "brute_omega": 3.0, '
     '"oracle_agrees": true}\n'),
    # k >= n keeps every relay and has no certificate
    ("select {gains} 9", 0, """\
n = 6
k = 9
omega = 2.7335
gamma = {1, 2, 3, 4, 5, 6}
omega_gamma = 2.7335
ratio = 1
comparisons = 12
certificate = none
guaranteed_rate[nnc] = 0
"""),
    ("select {gains} 9 --format machine", 0,
     '{"n": 6, "k": 9, "omega": 2.7334968083211284, "gamma": [1, 2, 3, 4, 5, 6], '
     '"omega_gamma": 2.7334968083211284, "ratio": 1.0, "comparisons": 12, '
     '"certificate": null, "gap_model": "nnc", "guaranteed_rate": 0.0}\n'),
    ("select {gains} 1 --gap-model routing", 0, """\
n = 6
k = 1
omega = 2.7335
gamma = {5}
omega_gamma = 2.72979
ratio = 0.998642
comparisons = 12
certificate = anchor_bin none; bins ()
guaranteed_rate[routing] = 0
"""),
    ("select {gains} 1 --gap-model routing --format machine", 0,
     '{"n": 6, "k": 1, "omega": 2.7334968083211284, "gamma": [5], '
     '"omega_gamma": 2.729785922922521, "ratio": 0.998642440193341, "comparisons": 12, '
     '"certificate": {"anchor_bin": null, "bins": []}, "gap_model": "routing", '
     '"guaranteed_rate": 0.0}\n'),
    ("select {gains} 2 --gap-model optimized", 0, """\
n = 6
k = 2
omega = 2.7335
gamma = {5}
omega_gamma = 2.72979
ratio = 0.998642
comparisons = 12
certificate = anchor_bin none; bins ()
guaranteed_rate[optimized] = 0
"""),
    ("select {gains} 2 --gap-model optimized --format machine", 0,
     '{"n": 6, "k": 2, "omega": 2.7334968083211284, "gamma": [5], '
     '"omega_gamma": 2.729785922922521, "ratio": 0.998642440193341, "comparisons": 12, '
     '"certificate": {"anchor_bin": null, "bins": []}, "gap_model": "optimized", '
     '"guaranteed_rate": 0.0}\n'),
    ("af {gains} --alpha 0.5,1,0,1,1,0.25", 0, """\
n = 6
mode = given
alpha = [0.5, 1, 0, 1, 1, 0.25]
af_rate = 2.80747
c1 = 2.72979
upper_bound = 7.89971
within_bound = true
"""),
    ("af {gains} --alpha 0.5,1,0,1,1,0.25 --format machine", 0,
     '{"n": 6, "mode": "given", "alpha": [0.5, 1.0, 0.0, 1.0, 1.0, 0.25], '
     '"af_rate": 2.807465730116696, "c1": 2.729785922922521, '
     '"upper_bound": 7.899710924364833, "within_bound": true}\n'),
    # omega = 0 leaves the ratio undefined: none, not nan
    ("select {zero} 1", 0, """\
n = 2
k = 1
omega = 0
gamma = {1}
omega_gamma = 0
ratio = none
comparisons = 0
certificate = none
guaranteed_rate[nnc] = 0
"""),
    ("select {zero} 1 --format machine", 0,
     '{"n": 2, "k": 1, "omega": 0.0, "gamma": [1], "omega_gamma": 0.0, '
     '"ratio": null, "comparisons": 0, "certificate": null, "gap_model": "nnc", '
     '"guaranteed_rate": 0.0}\n'),
    ("verify --trials 3", 0, """\
trials = 3
failures = 0
max_violation = 4.441e-16
elapsed_s = *
"""),
    ("verify --trials 3 --format machine", 0,
     '{"trials": 3, "failures": [], "max_violation": 4.440892098500626e-16, '
     '"elapsed_s": *}\n'),
]


class TestGoldenOutput:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        paths = {name: str(root / f"{name}.txt") for name in ("stair", "gains", "zero")}
        assert main(["tight", "2", "-o", paths["stair"]]) == 0
        assert main(["gen", "6", "--seed", "0", "-o", paths["gains"]]) == 0
        (root / "zero.txt").write_text("rate = 0 0\nrate = 0 0\n")
        return paths

    @pytest.mark.parametrize(
        "command,code,stdout", GOLDEN, ids=[g[0].replace(" ", "_") for g in GOLDEN]
    )
    def test_stdout_and_exit_code(self, capsys, files, command, code, stdout):
        got_code, out, _ = run_cli(capsys, *command.format(**files).split())
        out = re.sub(r'(elapsed_s(?: = |": ))[^,}\n]+', r"\1*", out)
        assert (got_code, out) == (code, stdout)

    @pytest.mark.parametrize(
        "command", [g[0] for g in GOLDEN if g[0].endswith("--format machine")]
    )
    def test_machine_output_is_strict_json(self, capsys, files, command):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        _, out, _ = run_cli(capsys, *command.format(**files).split())
        if out:
            json.loads(out, parse_constant=reject)

    def test_certificate_with_bins(self, capsys, tmp_path):
        path = str(tmp_path / "t4.txt")
        assert main(["tight", "4", "-o", path]) == 0
        _, out, _ = run_cli(capsys, "select", path, "3")
        assert "certificate = anchor_bin 2; bins (0, 1)\n" in out
        _, out, _ = run_cli(capsys, "select", path, "3", "--format", "machine")
        assert '"certificate": {"anchor_bin": 2, "bins": [0, 1]}' in out

    @pytest.mark.parametrize("fmt,stdout", [
        ("text", """\
trials = 4
failures = 2
  seed 11: oracle: fast 1 != brute 2
  seed 12: staircase: k=3
max_violation = 1.250e-03
elapsed_s = 0.50
"""),
        ("machine",
         '{"trials": 4, "failures": [{"seed": 11, "invariant": "oracle", '
         '"details": "fast 1 != brute 2"}, {"seed": 12, "invariant": "staircase", '
         '"details": "k=3"}], "max_violation": 0.00125, "elapsed_s": 0.5}\n'),
    ])
    def test_verify_failure_report(self, capsys, monkeypatch, fmt, stdout):
        failures = (
            Failure(seed=11, invariant="oracle", details="fast 1 != brute 2"),
            Failure(seed=12, invariant="staircase", details="k=3"),
        )
        report = VerifyReport(
            trials=4, failures=failures, max_violation=1.25e-3, elapsed=0.5
        )
        monkeypatch.setattr(cli, "run_verification", lambda **kw: report)
        code, out, _ = run_cli(capsys, "verify", "--format", fmt)
        assert (code, out) == (1, stdout)
