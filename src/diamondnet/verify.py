"""Monte Carlo verification harness tying all modules together.

Every trial draws a seeded random network and checks the cross-module
contracts on it: the fast and brute-force omega agree exactly, the
bracketing chain holds, every k-relay selection meets its guarantee and
comparison budget, the subnetwork ratio stays inside [k/(k+1), 1], the
staircase configuration is exact, and the amplify-and-forward rate never
beats the best-relay-plus-beamforming cap.

The best k-subnetwork value behind the ratio checks comes from one
``omega_k_table`` pass over the 2**n subsets per network, which gives every
k at once, equal under ``==`` to the per-k oracle ``omega_k_bruteforce``
(only the sign of a zero may differ).

Trial i runs on ``trial_seed(master_seed, i)`` (a splitmix64 mix, documented
below), so any single trial can be reproduced in isolation. Inequality
checks record their violation amount; a trial fails when that amount
exceeds the configured tolerance, while identity checks (oracle agreement,
staircase exactness, certificate shape) must hold exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .af import af_optimize, af_rate_batch, af_snr_bound_sides, af_upper_bound
from .cuts import cut_value, omega_bruteforce, omega_fast, sandwich
from .errors import ValidationError
from .generate import random_network
from .model import _to_float, _to_int, rate_table
from .selection import omega_k_table, select, tight_config, verify_selection

_MASK64 = (1 << 64) - 1

KMODES = ("all", "random")

NMAX_LIMIT = 16


def trial_seed(master_seed: int, index: int) -> int:
    """Per-trial seed: splitmix64 finalizer of master_seed + golden_gamma * (index+1).

    golden_gamma = 0x9E3779B97F4A7C15; the finalizer xor-shifts and
    multiplies by 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. Stable across
    platforms and releases. Both arguments are integers; a negative one
    counts mod 2**64.
    """
    master_seed = _to_int("master_seed", master_seed)
    index = _to_int("index", index)
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True, slots=True)
class Failure:
    seed: int
    invariant: str
    details: str


@dataclass(frozen=True, slots=True)
class VerifyReport:
    trials: int
    failures: tuple[Failure, ...]
    max_violation: float
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """Collects failures and the worst inequality deficit.

    A check's ``details`` is a ``str.format`` template, filled from ``args``
    only when the check fails, so a passing check formats nothing.
    """

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []
        self.max_violation = 0.0

    def inequality(self, seed, invariant, deficit, details="", *args):
        """Record an inequality check; deficit > 0 means it was violated."""
        deficit = float(deficit)
        if deficit > self.max_violation:
            self.max_violation = deficit
        if deficit > self.tolerance:
            details = f"violated by {deficit:.3e}; " + details.format(*args)
            self.failures.append(Failure(seed, invariant, details))

    def exact(self, seed, invariant, ok, details="", *args):
        if not ok:
            self.failures.append(Failure(seed, invariant, details.format(*args)))


def _check_trial(rec, seed, nmax, kmode, rng):
    n = int(rng.integers(1, nmax + 1))
    distribution = "rayleigh" if rng.integers(2) == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
    net = random_network(n, snr, seed, distribution)
    rt = rate_table(net)

    # fast path against the definitional oracle
    fast = omega_fast(rt)
    brute = omega_bruteforce(rt)
    rec.exact(
        seed,
        "omega-oracle",
        fast.value == brute.value,
        "fast {!r} != brute {!r}",
        fast.value,
        brute.value,
    )
    rec.exact(
        seed,
        "omega-argmin",
        cut_value(rt, fast.argmin_cut) == cut_value(rt, brute.argmin_cut),
        "argmin cuts have different values",
    )

    # bracketing chain
    sw = sandwich(rt)
    rec.inequality(seed, "bracket-lower", sw.omega - sw.lower, "omega > lower")
    rec.inequality(seed, "bracket-order", sw.lower - sw.upper, "lower > upper")
    rec.inequality(
        seed, "bracket-gap", sw.upper - (sw.omega + sw.gap), "upper > omega + gap"
    )

    # staircase family is exact in integer-rate arithmetic
    k_exact = 1 + int(rng.integers(6))
    stair = tight_config(k_exact, 1.0)
    rec.exact(
        seed,
        "staircase-omega",
        omega_fast(stair).value == float(k_exact + 1),
        "k={}",
        k_exact,
    )
    wk = omega_k_table(stair)[k_exact - 1]
    rec.exact(seed, "staircase-subset", wk == float(k_exact), "k={}", k_exact)

    # per-k selection and ratio checks
    omega = fast.value
    if n >= 2 and omega > 0.0:
        if kmode == "all":
            ks = range(1, n)
        else:
            ks = [int(rng.integers(1, n))]
        table = omega_k_table(rt)
        prev_ratio = 0.0
        for k in ks:
            wk = table[k - 1]
            ratio = wk / omega
            rec.inequality(seed, "ratio-lower", k / (k + 1) - ratio, "k={}", k)
            rec.inequality(seed, "ratio-upper", ratio - 1.0, "k={}", k)
            if kmode == "all":
                rec.inequality(seed, "ratio-monotone", prev_ratio - ratio, "k={}", k)
                prev_ratio = ratio
            sel = select(rt, k, omega)
            rec.exact(seed, "selection-size", 1 <= len(sel.gamma) <= k, "k={}", k)
            rec.inequality(
                seed,
                "selection-guarantee",
                (k / (k + 1)) * omega - sel.omega_gamma,
                "k={} gamma={}",
                k,
                sel.gamma,
            )
            rec.exact(
                seed,
                "selection-verified",
                verify_selection(rt, sel, k, omega),
                "k={}",
                k,
            )
            budget = 2 * n * k - (k - 1) * k // 2 + 2 * n
            rec.exact(
                seed,
                "selection-budget",
                sel.comparisons <= budget,
                "k={}: {} > {}",
                k,
                sel.comparisons,
                budget,
            )
            cert = sel.certificate
            if cert is not None and cert.anchor_bin is not None and len(cert.bins) > 1:
                increasing = all(
                    cert.bins[j] < cert.bins[j + 1] for j in range(len(cert.bins) - 1)
                )
                rec.exact(
                    seed,
                    "selection-certificate",
                    increasing and cert.bins[-1] < cert.anchor_bin <= k - 1,
                    "k={} cert={}",
                    k,
                    cert,
                )

    # amplify-and-forward never beats the best-relay cap
    bound, _ = af_upper_bound(rt)
    alphas = rng.uniform(0.0, 1.0, size=(8, n))
    rates = af_rate_batch(net, alphas)
    rec.inequality(
        seed, "af-bound", float(rates.max()) - bound, "random coefficients"
    )
    start = af_rate_batch(net, np.ones((1, n)))[0]
    opt = af_optimize(net)
    rec.inequality(seed, "af-bound", opt.rate - bound, "optimized coefficients")
    rec.inequality(
        seed, "af-monotone", float(start) - opt.rate, "optimizer below start"
    )

    # scalar SNR inequality behind the cap, with forced boundary fractions
    m = int(rng.integers(1, 9))
    u_d = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=m))
    u_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=m))
    b = rng.uniform(0.0, 1.0, size=m)
    edge = rng.integers(3)
    if edge == 1:
        b[: max(1, m // 2)] = 0.0
    elif edge == 2:
        b[: max(1, m // 2)] = 1.0
    lhs, rhs = af_snr_bound_sides(u_d, u_s, b)
    rec.inequality(seed, "af-snr-inequality", rhs - lhs, "m={}", m)


def run_verification(
    trials: int,
    nmax: int = 12,
    kmode: str = "all",
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerifyReport:
    """Run ``trials`` seeded random trials of the cross-module invariant suite.

    Parameters
    ----------
    trials : number of random networks to draw.
    nmax : relay-count ceiling per trial (1..nmax, capped at 16).
    kmode : "all" checks every k in 1..n-1 per trial, "random" one k.
    seed : master seed; trial i uses trial_seed(seed, i).
    tolerance : violation allowance for inequality checks.
    """
    trials = _to_int("trials", trials, minimum=1)
    nmax = _to_int("nmax", nmax, minimum=1)
    if nmax > NMAX_LIMIT:
        raise ValidationError(f"nmax must lie in 1..{NMAX_LIMIT}, got {nmax}")
    if kmode not in KMODES:
        raise ValidationError(f"kmode must be one of {KMODES}, got {kmode!r}")
    seed = _to_int("seed", seed)
    tolerance = _to_float("tolerance", tolerance, "nonnegative")

    started = time.perf_counter()
    rec = _Recorder(tolerance)
    for i in range(trials):
        s = trial_seed(seed, i)
        rng = np.random.default_rng(s)
        _check_trial(rec, s, nmax, kmode, rng)
    failures = tuple(sorted(rec.failures, key=lambda f: (f.seed, f.invariant)))
    return VerifyReport(
        trials=trials,
        failures=failures,
        max_violation=rec.max_violation,
        elapsed=time.perf_counter() - started,
    )
