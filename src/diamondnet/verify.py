"""Monte Carlo verification harness tying all modules together.

Every trial draws a seeded random network and checks the cross-module
contracts on it: the fast and brute-force omega agree exactly, on the
value and on the argmin cut, the bracketing chain holds, every k-relay
selection meets its guarantee, makes at most k scans of the n relays
(``comparisons <= 2 * n * k``), has the brute force's omega and a
well-formed certificate (``_certificate_ok``), the subnetwork ratio
stays inside [k/(k+1), 1], the staircase configuration is exact, and the
amplify-and-forward optimum beats its start and every random coefficient
row but never the best-relay-plus-beamforming cap.

The best k-subnetwork value behind the ratio checks comes from one
``omega_k_table`` chain recurrence over the relay pairs per network, which
gives every k at once, bit-identical to the per-k oracle
``omega_k_bruteforce``. Each k's pick comes from its own ``select`` call,
and one ``brute_omega`` walk over the picks, stacked and padded with
zero-rate relays (``_stack``), is their oracle; the per-k invariants are
then recorded in k order, so the report is that of a k-by-k loop.

Trial i runs on ``trial_seed(master_seed, i)`` (a splitmix64 mix, documented
below), so any single trial can be reproduced in isolation. Identity checks
and the inequalities that floats keep by construction (best-k <= omega and
nondecreasing in k, AF optimum >= its start) are exact; any other
inequality records its deficit and fails when that exceeds ``SLACK``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .af import af_optimize, af_rate_batch, af_snr_bound_sides, af_upper_bound
from .cuts import omega_bruteforce, omega_fast, sandwich
from .errors import ValidationError
from .generate import random_network
from .kernels import brute_omega
from .model import _Value, _to_int, rate_table
from .selection import _clears_bound, omega_k_table, select, tight_config

_MASK64 = (1 << 64) - 1

KMODES = ("all", "random")

NMAX_LIMIT = 16

# The allowance of an inequality check without a proof in floats: the
# bracket's log2 and expm1 roundings, select's threshold (ROADMAP item 1)
SLACK = 1e-9


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


def _stack(rt, gammas):
    """The rates of each 1-based relay set of ``gammas`` as the rows of two
    (m, width) arrays, padded with zero-rate relays."""
    width = max(map(len, gammas))
    idx = np.array([gamma + (0,) * (width - len(gamma)) for gamma in gammas]) - 1
    r_s, r_d = rt.r_s[idx], rt.r_d[idx]
    pad = idx < 0
    r_s[pad] = 0.0
    r_d[pad] = 0.0
    return r_s, r_d


def _certificate_ok(cert, k):
    """Whether ``cert`` is one ``select`` can give at a k below n and a
    positive omega: an anchor alone has no round bins, and otherwise the
    bins start at 0, rise strictly, and stay below the anchor's bin, which
    is at most k - 1."""
    if cert is None:
        return False
    bins = cert.bins
    if cert.anchor_bin is None:
        return bins == ()
    return (
        bool(bins)
        and bins[0] == 0
        and all(x < y for x, y in zip(bins, bins[1:]))
        and bins[-1] < cert.anchor_bin <= k - 1
    )


class Failure(_Value):
    """One failed check: the trial seed, the invariant's name, and details."""

    __slots__ = ("seed", "invariant", "details")


class VerifyReport(_Value):
    """Trial count, the failures in (seed, invariant) order, the worst
    inequality deficit, and the wall time in seconds."""

    __slots__ = ("trials", "failures", "max_violation", "elapsed")

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """Collects failures and the worst inequality deficit.

    A check's ``details`` is a ``str.format`` template, filled from ``args``
    only when the check fails, so a passing check formats nothing.
    """

    def __init__(self):
        self.failures = []
        self.max_violation = 0.0

    def inequality(self, seed, invariant, deficit, details="", *args):
        """Record an inequality check; deficit > 0 means it was violated."""
        deficit = float(deficit)
        if deficit > self.max_violation:
            self.max_violation = deficit
        if deficit > SLACK:
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
        fast.argmin_cut == brute.argmin_cut,
        "fast {} != brute {}",
        fast.argmin_cut,
        brute.argmin_cut,
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
        sels = [select(rt, k, omega) for k in ks]
        brute_values = brute_omega(*_stack(rt, [sel.gamma for sel in sels]))[0]
        prev = 0.0
        for k, sel, value in zip(ks, sels, brute_values.tolist()):
            wk = table[k - 1]
            rec.inequality(seed, "ratio-lower", k / (k + 1) - wk / omega, "k={}", k)
            rec.exact(seed, "ratio-upper", wk <= omega, "k={}: {} > {}", k, wk, omega)
            if kmode == "all":
                rec.exact(
                    seed, "ratio-monotone", prev <= wk, "k={}: {} < {}", k, wk, prev
                )
                prev = wk
            rec.exact(seed, "selection-size", 1 <= len(sel.gamma) <= k, "k={}", k)
            rec.inequality(
                seed,
                "selection-guarantee",
                (k / (k + 1)) * omega - sel.omega_gamma,
                "k={} gamma={}",
                k,
                sel.gamma,
            )
            ok = _clears_bound(value, omega, k)
            rec.exact(seed, "selection-verified", ok, "k={}", k)
            rec.exact(seed, "selection-oracle", value == sel.omega_gamma, "k={}", k)
            budget = 2 * n * k  # at most k scans, 2 rate tests per relay each
            rec.exact(
                seed,
                "selection-budget",
                sel.comparisons <= budget,
                "k={}: {} > {}",
                k,
                sel.comparisons,
                budget,
            )
            rec.exact(
                seed,
                "selection-certificate",
                _certificate_ok(sel.certificate, k),
                "k={} cert={}",
                k,
                sel.certificate,
            )

    # amplify-and-forward: the optimum beats its start and every random
    # row, and never the best-relay cap
    bound, _ = af_upper_bound(rt)
    # row 0 is full power; a row's rate does not depend on its batch
    alphas = np.vstack((np.ones(n), rng.uniform(0.0, 1.0, size=(8, n))))
    rates = af_rate_batch(net, alphas)
    start, best = float(rates[0]), float(rates[1:].max())
    rec.inequality(seed, "af-bound", best - bound, "random coefficients")
    opt = af_optimize(net)
    rec.inequality(seed, "af-bound", opt.rate - bound, "optimized coefficients")
    rec.exact(seed, "af-monotone", start <= opt.rate, "{} < start {}", opt.rate, start)
    rec.inequality(seed, "af-optimal", best - opt.rate, "random coefficients")

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
) -> VerifyReport:
    """Run ``trials`` seeded random trials of the cross-module invariant suite.

    Parameters
    ----------
    trials : number of random networks to draw.
    nmax : relay-count ceiling per trial (1..nmax, capped at 16).
    kmode : "all" checks every k in 1..n-1 per trial, "random" one k.
    seed : master seed; trial i uses trial_seed(seed, i).
    """
    trials = _to_int("trials", trials, minimum=1)
    nmax = _to_int("nmax", nmax, minimum=1)
    if nmax > NMAX_LIMIT:
        raise ValidationError(f"nmax must lie in 1..{NMAX_LIMIT}, got {nmax}")
    if kmode not in KMODES:
        raise ValidationError(f"kmode must be one of {KMODES}, got {kmode!r}")
    seed = _to_int("seed", seed)

    started = time.perf_counter()
    rec = _Recorder()
    for i in range(trials):
        s = trial_seed(seed, i)
        rng = np.random.default_rng(s)
        _check_trial(rec, s, nmax, kmode, rng)
    failures = tuple(sorted(rec.failures, key=lambda f: (f.seed, f.invariant)))
    elapsed = time.perf_counter() - started
    return VerifyReport(trials, failures, rec.max_violation, elapsed)
