import json
import math

import pytest

from diamondnet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "25", "--nmax", "8", "--seed", "42"
        )
        assert code == 0
        assert "failures = 0" in out

    def test_negative_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tolerance", "-1")
        assert code == 2
        assert "tolerance" in err

    def test_machine_output_deterministic_except_elapsed(self, capsys):
        args = ("verify", "--trials", "10", "--seed", "3", "--format", "machine")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b


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
