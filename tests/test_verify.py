from collections import Counter

import numpy as np
import pytest

from diamondnet import (
    AfReport,
    Cut,
    Network,
    OmegaResult,
    SandwichReport,
    SelectionResult,
    ValidationError,
    omega_k_bruteforce,
    run_verification,
    trial_seed,
    verify,
)
from diamondnet.selection import Certificate


class TestTrialSeed:
    def test_frozen_values(self):
        # pinned outputs of the documented splitmix64 rule
        assert trial_seed(0, 0) == 16294208416658607535
        assert trial_seed(42, 0) == 13679457532755275413
        assert trial_seed(42, 1) == 2949826092126892291

    def test_deterministic_and_distinct(self):
        seeds = [trial_seed(7, i) for i in range(1000)]
        assert seeds == [trial_seed(7, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_master_seed_separates_streams(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)


class TestRunVerification:
    def test_small_run_is_clean(self):
        report = run_verification(trials=40, nmax=10, kmode="all", seed=42)
        assert report.trials == 40
        assert report.failures == ()
        assert report.ok
        assert report.max_violation <= 1e-9

    def test_random_kmode(self):
        report = run_verification(trials=30, nmax=10, kmode="random", seed=7)
        assert report.ok

    def test_repeat_run_identical(self):
        a = run_verification(trials=15, nmax=8, seed=3)
        b = run_verification(trials=15, nmax=8, seed=3)
        assert a.failures == b.failures
        assert a.max_violation == b.max_violation

    @pytest.mark.parametrize("kmode", ["all", "random"])
    def test_same_report_as_per_k_bruteforce(self, kmode, monkeypatch):
        # the best-k values once came from one omega_k_bruteforce call per k
        report = run_verification(trials=200, nmax=12, kmode=kmode, seed=277)
        monkeypatch.setattr(
            verify,
            "omega_k_table",
            lambda rt: tuple(omega_k_bruteforce(rt, k)[0] for k in range(1, rt.n + 1)),
        )
        oracle = run_verification(trials=200, nmax=12, kmode=kmode, seed=277)
        assert report.failures == oracle.failures == ()
        assert report.max_violation == oracle.max_violation

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"trials": 5, "nmax": 0},
            {"trials": 5, "nmax": 40},
            {"trials": 5, "kmode": "some"},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            run_verification(**kwargs)

    def test_has_no_tolerance(self):
        with pytest.raises(TypeError):
            run_verification(5, tolerance=1e-9)

    def test_best_k_one_ulp_above_omega_fails(self, monkeypatch):
        # ratio-upper is exact: a 2.2e-16 excess is below the slack of an
        # inequality check, but best-k <= omega holds in floats
        orig_rate_table, orig_table = verify.rate_table, verify.omega_k_table
        trial = {}

        def rate_table(net):
            trial["rt"] = orig_rate_table(net)
            return trial["rt"]

        def omega_k_table(rt):
            table = list(orig_table(rt))
            if rt is trial["rt"]:  # not the staircase
                # k = n - 1, the last k checked, so the table still never falls
                table[-2] = float(np.nextafter(verify.omega_fast(rt).value, np.inf))
            return tuple(table)

        monkeypatch.setattr(verify, "rate_table", rate_table)
        monkeypatch.setattr(verify, "omega_k_table", omega_k_table)
        report = run_verification(1, nmax=6, kmode="all", seed=1)
        (fail,) = report.failures
        assert fail.invariant == "ratio-upper"
        assert fail.details.startswith("k=5: ")
        assert report.max_violation <= verify.SLACK


class TestStrictChecks:
    """omega-argmin and selection-certificate check identity and shape."""

    @pytest.mark.parametrize(
        "anchor_bin",
        # a single round bin, and an anchor returned alone, were once exempt
        [lambda k: k, lambda k: None],
        ids=["single-bin", "anchor-alone"],
    )
    def test_forged_certificate_fails(self, anchor_bin, monkeypatch):
        orig = verify.select
        forged = []

        def select(rt, k, omega):
            sel = orig(rt, k, omega)
            forged.append((k, Certificate(anchor_bin(k), (0,))))
            return SelectionResult(
                sel.gamma, sel.omega_gamma, forged[-1][1], sel.comparisons
            )

        monkeypatch.setattr(verify, "select", select)
        report = run_verification(3, nmax=6, kmode="all", seed=31)
        assert forged
        assert {f.invariant for f in report.failures} == {"selection-certificate"}
        assert sorted(f.details for f in report.failures) == sorted(
            f"k={k} cert={cert}" for k, cert in forged
        )

    @pytest.mark.parametrize(
        "cert, k, ok",
        [
            (Certificate(None, ()), 1, True),
            (Certificate(1, (0,)), 2, True),
            (Certificate(3, (0, 1, 2)), 4, True),
            (None, 2, False),
            (Certificate(None, (0,)), 2, False),
            (Certificate(1, ()), 2, False),
            (Certificate(2, (0,)), 2, False),
            (Certificate(2, (1,)), 3, False),
            (Certificate(2, (0, 2)), 3, False),
            (Certificate(3, (0, 2, 1)), 4, False),
        ],
    )
    def test_certificate_shapes(self, cert, k, ok):
        assert verify._certificate_ok(cert, k) is ok

    def test_another_minimal_cut_fails(self, monkeypatch):
        # with equal gains only the empty and the full cut are minimal; the
        # fast path reports the other one of the two
        orig = verify.omega_fast
        ns = {}

        def random_network(n, snr, seed, distribution):
            ns[seed] = n
            return Network(snr, [1.0] * n, [1.0] * n)

        def omega_fast(rt):
            res = orig(rt)
            other = Cut(set(range(1, rt.n + 1)) - res.argmin_cut.members)
            return OmegaResult(res.value, other, res.comparisons)

        monkeypatch.setattr(verify, "random_network", random_network)
        monkeypatch.setattr(verify, "omega_fast", omega_fast)
        report = run_verification(3, nmax=6, kmode="all", seed=31)
        assert [f.invariant for f in report.failures] == ["omega-argmin"] * 3
        for f in report.failures:
            empty, full = Cut(), Cut(range(1, ns[f.seed] + 1))
            assert f.details in (
                f"fast {empty} != brute {full}",
                f"fast {full} != brute {empty}",
            )


# Checks per invariant in run_verification(200, nmax=12, seed=277), counted
# before the checks were made to format their details only on failure;
# selection-certificate once skipped certificates with fewer than two bins.
CHECK_COUNTS = {
    "all": {
        "omega-oracle": 200,
        "omega-argmin": 200,
        "bracket-lower": 200,
        "bracket-order": 200,
        "bracket-gap": 200,
        "staircase-omega": 200,
        "staircase-subset": 200,
        "ratio-lower": 1067,
        "ratio-upper": 1067,
        "ratio-monotone": 1067,
        "selection-size": 1067,
        "selection-guarantee": 1067,
        "selection-verified": 1067,
        "selection-oracle": 1067,
        "selection-budget": 1067,
        "selection-certificate": 1067,
        "af-bound": 400,
        "af-monotone": 200,
        "af-optimal": 200,
        "af-snr-inequality": 200,
    },
    "random": {
        "omega-oracle": 200,
        "omega-argmin": 200,
        "bracket-lower": 200,
        "bracket-order": 200,
        "bracket-gap": 200,
        "staircase-omega": 200,
        "staircase-subset": 200,
        "ratio-lower": 181,
        "ratio-upper": 181,
        "selection-size": 181,
        "selection-guarantee": 181,
        "selection-verified": 181,
        "selection-oracle": 181,
        "selection-budget": 181,
        "selection-certificate": 181,
        "af-bound": 400,
        "af-monotone": 200,
        "af-optimal": 200,
        "af-snr-inequality": 200,
    },
}
EXACT = {
    "omega-oracle",
    "omega-argmin",
    "staircase-omega",
    "staircase-subset",
    "selection-size",
    "selection-verified",
    "selection-oracle",
    "selection-budget",
    "selection-certificate",
    "ratio-upper",
    "ratio-monotone",
    "af-monotone",
}


class TestCheckInventory:
    """A speed-up must not drop a check: count every call into the recorder."""

    @pytest.mark.parametrize("kmode", ["all", "random"])
    def test_per_invariant_counts(self, kmode, monkeypatch):
        calls = Counter()

        def spy(kind, method):
            def counted(self, seed, invariant, *args):
                calls[kind, invariant] += 1
                return method(self, seed, invariant, *args)

            return counted

        monkeypatch.setattr(
            verify._Recorder, "exact", spy("exact", verify._Recorder.exact)
        )
        monkeypatch.setattr(
            verify._Recorder,
            "inequality",
            spy("inequality", verify._Recorder.inequality),
        )
        report = run_verification(200, nmax=12, kmode=kmode, seed=277)
        want = {
            ("exact" if name in EXACT else "inequality", name): count
            for name, count in CHECK_COUNTS[kmode].items()
        }
        assert dict(calls) == want
        assert report.failures == ()
        assert report.max_violation == 8.881784197001252e-16


def break_every_invariant(monkeypatch):
    """Perturb what verify calls so that each of its 20 invariants fails."""
    orig = {
        name: getattr(verify, name)
        for name in (
            "omega_bruteforce",
            "sandwich",
            "omega_k_table",
            "tight_config",
            "select",
            "af_upper_bound",
            "af_snr_bound_sides",
            "af_optimize",
        )
    }

    def brute(rt):
        res = orig["omega_bruteforce"](rt)
        return OmegaResult(
            value=res.value + 0.5,
            argmin_cut=Cut(range(1, rt.n + 1)),
            comparisons=res.comparisons,
        )

    def select(rt, k, omega):
        sel = orig["select"](rt, k, omega)
        return SelectionResult(
            gamma=sel.gamma * (k + 1),
            omega_gamma=sel.omega_gamma / 4,
            certificate=Certificate(anchor_bin=k + 1, bins=(0, 2, 1)),
            comparisons=10**6,
        )

    def sandwich(rt):
        sw = orig["sandwich"](rt)
        return SandwichReport(
            omega=sw.omega, lower=-1.0, upper=-2.0 if rt.n % 2 else 1e3, gap=sw.gap
        )

    def af_optimize(net):
        rep = orig["af_optimize"](net)
        return AfReport(rate=-1.0, alpha=rep.alpha)

    patches = {
        "omega_bruteforce": brute,
        "sandwich": sandwich,
        "omega_k_table": lambda rt: tuple(
            v * (0.25 if k % 2 else 3.0)
            for k, v in enumerate(orig["omega_k_table"](rt), 1)
        ),
        "tight_config": lambda k, base: orig["tight_config"](k + 1, base),
        "select": select,
        # the picks' lattice walk: below every bound, and unequal to omega_gamma
        "brute_omega": lambda r_s, r_d: (np.full(len(r_s), -1.0), None),
        "af_upper_bound": lambda rt: (orig["af_upper_bound"](rt)[0] - 5.0, 0.0),
        "af_snr_bound_sides": lambda *args: orig["af_snr_bound_sides"](*args)[::-1],
        "af_optimize": af_optimize,
    }
    for name, fn in patches.items():
        monkeypatch.setattr(verify, name, fn)


class TestFailureDetails:
    """Details are formatted only on failure; their text must not change."""

    def test_first_failure_of_every_invariant(self, monkeypatch):
        break_every_invariant(monkeypatch)
        report = run_verification(4, nmax=6, kmode="all", seed=31)
        first = {}
        for f in report.failures:
            first.setdefault(f.invariant, (f.seed, f.details))
        a, b, c = 9312843868474496213, 13606743526313246680, 9971732663584954733
        assert first == {
            "af-bound": (a, "violated by 2.469e+00; random coefficients"),
            "af-monotone": (a, "-1.0 < start 5.400687233452268"),
            "af-optimal": (a, "violated by 6.180e+00; random coefficients"),
            "af-snr-inequality": (a, "violated by 4.818e-01; m=1"),
            "bracket-gap": (a, "violated by 9.923e+02; upper > omega + gap"),
            "bracket-lower": (a, "violated by 6.711e+00; omega > lower"),
            "bracket-order": (b, "violated by 1.000e+00; lower > upper"),
            "omega-argmin": (
                a,
                "fast Cut(members=frozenset()) != brute Cut(members=frozenset({1, 2}))",
            ),
            "omega-oracle": (a, "fast 5.711031475191098 != brute 6.211031475191098"),
            "ratio-lower": (a, "violated by 2.500e-01; k=1"),
            "ratio-monotone": (c, "k=3: 1.3815908063604119 < 16.57908967632494"),
            "ratio-upper": (c, "k=2: 16.57908967632494 > 5.5263632254416475"),
            "selection-budget": (a, "k=1: 1000000 > 4"),
            "selection-certificate": (
                a,
                "k=1 cert=Certificate(anchor_bin=2, bins=(0, 2, 1))",
            ),
            "selection-guarantee": (a, "violated by 1.428e+00; k=1 gamma=(1, 1)"),
            "selection-oracle": (a, "k=1"),
            "selection-size": (a, "k=1"),
            "selection-verified": (a, "k=1"),
            "staircase-omega": (a, "k=3"),
            "staircase-subset": (a, "k=3"),
        }
        assert len(report.failures) == 91
        assert report.max_violation == 996.8582232221845
