"""Acceptance suite: every product-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Random ensembles are seeded through ``trial_seed`` so every run
checks the identical instances.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from diamondnet import (
    Network,
    RateTable,
    af_grid_search,
    af_optimize,
    af_rate_batch,
    af_snr_bound_sides,
    af_upper_bound,
    cut_value,
    hybrid_tradeoff,
    omega_bruteforce,
    omega_fast,
    omega_k_bruteforce,
    omega_k_ratio,
    random_network,
    rate_table,
    run_verification,
    sandwich,
    select,
    tight_config,
    verify_selection,
)
from diamondnet.verify import trial_seed


def seeded_network(master, i, nmin, nmax, snr_lo=0.25, snr_hi=64.0):
    s = trial_seed(master, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(nmin, nmax + 1))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(snr_lo), math.log(snr_hi))))
    return random_network(n, snr, s, dist)


_SWEEP_CACHE = {}


def ratio_selection_sweep():
    """500 seeded networks, n in 2..12, everything needed per k in 1..n-1."""
    if "sweep" in _SWEEP_CACHE:
        return _SWEEP_CACHE["sweep"]
    started = time.perf_counter()
    records = []
    for i in range(500):
        rt = rate_table(seeded_network(master=2024, i=i, nmin=2, nmax=12))
        omega = omega_fast(rt).value
        per_k = []
        if omega > 0.0:
            for k in range(1, rt.n):
                ratio = omega_k_ratio(rt, k)
                sel = select(rt, k, omega)
                verified = verify_selection(rt, sel, k, omega)
                per_k.append((k, ratio, sel, verified))
        records.append((rt, omega, per_k))
    elapsed = time.perf_counter() - started
    _SWEEP_CACHE["sweep"] = (records, elapsed)
    return _SWEEP_CACHE["sweep"]


def test_oracle_equivalence_sweep():
    started = time.perf_counter()
    checked = 0
    for i in range(1000):
        rt = rate_table(seeded_network(master=2023, i=i, nmin=1, nmax=16))
        fast = omega_fast(rt)
        brute = omega_bruteforce(rt)
        assert fast.value == brute.value
        assert cut_value(rt, fast.argmin_cut) == cut_value(rt, brute.argmin_cut)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"PASS oracle equivalence: fast == brute exactly on {checked} networks "
        f"(n <= 16) in {elapsed:.2f}s"
    )


def test_subnetwork_ratio_bounds_sweep():
    records, elapsed = ratio_selection_sweep()
    assert elapsed < 60.0
    nets = 0
    checks = 0
    for rt, omega, per_k in records:
        if not per_k:
            continue
        nets += 1
        prev = 0.0
        for k, ratio, _, _ in per_k:
            assert ratio >= k / (k + 1) - 1e-9
            assert ratio <= 1.0 + 1e-12
            assert ratio >= prev - 1e-12
            prev = ratio
            checks += 1
    assert nets >= 450  # degenerate all-zero draws are vanishingly rare
    print(
        f"PASS subnetwork ratio: {checks} (network, k) pairs inside "
        f"[k/(k+1), 1], nondecreasing, in {elapsed:.2f}s"
    )


def test_selection_guarantee_and_comparison_budget():
    records, _ = ratio_selection_sweep()
    checks = 0
    for rt, omega, per_k in records:
        n = rt.n
        for k, _, sel, verified in per_k:
            assert 1 <= len(sel.gamma) <= k
            assert sel.omega_gamma >= (k / (k + 1)) * omega - 1e-9
            assert verified
            # one anchor scan and one per round, at most k scans of n relays
            scans = 1 + len(sel.certificate.bins)
            assert sel.comparisons == 2 * n * scans <= 2 * n * k
            checks += 1
    print(
        f"PASS selection guarantee: {checks} selections sized <= k, "
        "verified exactly, within the comparison budget"
    )


def test_staircase_family_exact_values():
    for k in range(1, 9):
        rt = tight_config(k, 1.0)
        assert omega_fast(rt).value == float(k + 1)
        assert omega_bruteforce(rt).value == float(k + 1)
        # every k-subset of the k+1 relays achieves exactly k
        for combo in combinations(range(1, k + 2), k):
            best = None
            for size in range(k + 1):
                for inside in combinations(combo, size):
                    outside = [i for i in combo if i not in inside]
                    d = max((rt.r_d[i - 1] for i in inside), default=0.0)
                    s = max((rt.r_s[i - 1] for i in outside), default=0.0)
                    best = d + s if best is None else min(best, d + s)
            assert best == float(k)
        value, _ = omega_k_bruteforce(rt, k)
        assert value == float(k)
        assert abs(omega_k_ratio(rt, k) - k / (k + 1)) <= 1e-12
    print("PASS staircase family: omega = k+1 and every k-subset = k, exactly, k in 1..8")


def test_bracketing_chain_sweep():
    for i in range(500):
        rt = rate_table(seeded_network(master=2025, i=i, nmin=1, nmax=12))
        sw = sandwich(rt)
        assert sw.omega <= sw.lower + 1e-9
        assert sw.lower <= sw.upper + 1e-9
        assert sw.upper <= sw.omega + sw.gap + 1e-9
    print("PASS bracketing chain: omega <= lower <= upper <= omega + gap on 500 networks")


def test_two_relay_symmetric_example_gap_within_one_bit():
    net = Network(1.0, [4.0, 4.0], [16.0, 16.0])
    rt = rate_table(net)
    sw = sandwich(rt)
    _, c1 = af_upper_bound(rt)
    assert abs(sw.upper - 5.044394119358453) <= 1e-3
    assert abs(c1 - 4.087462841250339) <= 1e-3
    gap = sw.upper - c1
    assert abs(gap - 0.9569312781081143) <= 1e-3
    assert gap <= 1.0
    print(
        f"PASS symmetric two-relay example: single relay within "
        f"{gap:.3f} <= 1 bit/s/Hz of the upper bound"
    )


def test_af_rate_never_beats_best_relay_cap():
    started = time.perf_counter()
    checks = 0
    for i in range(500):
        net = seeded_network(master=2026, i=i, nmin=1, nmax=8)
        rng = np.random.default_rng(trial_seed(2027, i))
        bound, _ = af_upper_bound(rate_table(net))
        rates = af_rate_batch(net, rng.uniform(0.0, 1.0, (100, net.n)))
        assert float(rates.max()) <= bound + 1e-9
        opt = af_optimize(net)
        assert opt.rate <= bound + 1e-9
        checks += 101
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS amplify-and-forward cap: {checks} coefficient vectors under "
        f"c1 + 2*log2(n) in {elapsed:.2f}s"
    )


def test_af_snr_inequality_mass_sweep():
    rng = np.random.default_rng(trial_seed(2028, 0))
    total = 0
    for n in range(1, 9):
        per_n = 12500
        u_d = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (per_n, n)))
        u_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (per_n, n)))
        b = rng.uniform(0.0, 1.0, (per_n, n))
        b[: per_n // 4] = 0.0
        b[per_n // 4 : per_n // 2] = 1.0
        for row in range(per_n):
            lhs, rhs = af_snr_bound_sides(u_d[row], u_s[row], b[row])
            assert lhs >= rhs - 1e-12
            total += 1
    print(f"PASS amplified-SNR inequality: lhs >= rhs on {total} tuples incl. b in {{0,1}}")


def test_af_optimizer_matches_exhaustive_grid():
    # the optimizer returns the global maximum, so it dominates every point
    # of the 21-point lattice up to roundoff, and stays under the true cap
    worst = math.inf
    for i in range(100):
        net = seeded_network(master=2029, i=i, nmin=1, nmax=4)
        opt = af_optimize(net)
        grid_rate, _ = af_grid_search(net, 21)
        worst = min(worst, opt.rate - grid_rate)
        assert opt.rate >= grid_rate - 1e-12
        assert opt.rate <= af_upper_bound(rate_table(net))[0] + 1e-9
    print(
        f"PASS optimizer vs grid: never below the 21-point exhaustive search "
        f"(worst margin {worst:+.2e}) on 100 networks"
    )


def test_hybrid_tradeoff_regression():
    tr = hybrid_tradeoff(20.0, 100, "nnc")
    assert tr.baseline == 0.0  # 20 - 1.3*100 clips to zero
    assert tr.best_k == 1  # frozen regression value
    best_value = dict(tr.entries)[tr.best_k]
    assert best_value == pytest.approx(0.1116594664196473, abs=1e-9)
    assert best_value > 0.0
    assert tr.best_k <= 5
    print(
        f"PASS hybrid tradeoff: baseline clips to 0, best_k = {tr.best_k} "
        f"with positive rate {best_value:.4f}"
    )


def test_comparison_counters_and_large_n_runtime():
    # omega_fast counts its scan: n - 1 suffix maxima, then the argmin over
    # the n + 1 candidates
    for probe in list(range(1, 65)) + [100, 1000, 10**4, 10**5]:
        rng = np.random.default_rng(probe)
        rt = RateTable(rng.uniform(0, 20, probe), rng.uniform(0, 20, probe))
        assert omega_fast(rt).comparisons == 2 * probe - 1

    rng = np.random.default_rng(0)
    rt = RateTable(rng.uniform(0, 20, 10**5), rng.uniform(0, 20, 10**5))
    omega_fast(rt)  # warm path
    started = time.perf_counter()
    omega_fast(rt)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"PASS comparison counters: 2n - 1 at every probed n <= 1e5; "
        f"omega at n=1e5 in {elapsed * 1000:.0f}ms"
    )


def test_cross_module_verification_harness():
    report = run_verification(trials=1000, nmax=12, kmode="all", seed=42)
    assert report.failures == ()
    assert report.max_violation <= 1e-9
    print(
        f"PASS verification harness: 1000 trials, zero failures, "
        f"max violation {report.max_violation:.2e}, {report.elapsed:.1f}s"
    )
