import pytest

from diamondnet import (
    ValidationError,
    omega_k_bruteforce,
    run_verification,
    trial_seed,
    verify,
)


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
            {"trials": 5, "tolerance": -1.0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            run_verification(**kwargs)
