"""A pinned fingerprint of every float the desk-scale paths return.

The CLI golden cases run only a few ``verify`` trials, so a last-bit drift
in a kernel could pass them unseen. This test runs the fast paths, their
oracles, the bracketing bounds and the AF optimizer on 300 seeded networks
and hashes the ``float.hex`` of every output: a refactor that is meant to
keep each result bit for bit keeps the digest. The digest was taken with
numpy 2.4 on x86-64 Linux; a numpy or BLAS whose log, exp or dot
products round differently gives another one without any fault here.
"""

import hashlib
import math

import numpy as np

from diamondnet import (
    Cut,
    RateTable,
    af_optimize,
    af_upper_bound,
    hybrid_tradeoff,
    omega_bruteforce,
    omega_fast,
    omega_k_bruteforce,
    omega_k_table,
    random_network,
    rate_table,
    run_verification,
    sandwich,
    select,
    trial_seed,
    verify_selection,
)
from diamondnet.selection import GAP_MODELS, Certificate

# SHA-256 of ``fingerprint_lines()``, one line per network, joined by "\n"
DIGEST = "74726fa0670b5235ef3c1011357912ba5dd5a5cd2143b6a4389e8ea762f5def7"

# SHA-256 of ``harness_lines()``, joined by "\n"
HARNESS_DIGEST = "bd3762a5ad2152db7691c4ce78bc0622594a8a8f6893f45985cfa72f13e4ca0d"


def encode(x):
    """A canonical text of an output: floats as ``float.hex``."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (bool, int, str)) or x is None:
        return repr(x)
    if isinstance(x, np.ndarray):
        return encode(x.tolist())
    if isinstance(x, Cut):
        return encode(x.sorted_members())
    if isinstance(x, Certificate):
        return encode((x.anchor_bin, x.bins))
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(encode, x)) + ")"
    raise TypeError(f"no encoding for {type(x).__name__}")


def network_outputs(i):
    """Every output of the checked functions on seeded network ``i``."""
    s = trial_seed(1907, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(1, 13))
    dist = "rayleigh" if i % 2 == 0 else "loguniform"
    snr = float(np.exp(rng.uniform(math.log(0.25), math.log(64.0))))
    net = random_network(n, snr, s, dist)
    rt = rate_table(net)
    fast, brute = omega_fast(rt), omega_bruteforce(rt)
    out = [
        (fast.value, fast.argmin_cut, fast.comparisons),
        (brute.value, brute.argmin_cut, brute.comparisons),
        omega_k_table(rt),
    ]
    sw = sandwich(rt)
    out.append((sw.omega, sw.lower, sw.upper, sw.gap))
    opt = af_optimize(net)
    out.append((opt.rate, opt.alpha.alpha, *af_upper_bound(rt)))
    for k in range(1, n + 1):
        for omega in (fast.value, 0.5 * fast.value):
            sel = select(rt, k, omega)
            out.append(
                (sel.gamma, sel.omega_gamma, sel.certificate, sel.comparisons)
            )
            out.append(verify_selection(rt, sel, k, omega))
    return out


def fingerprint_lines():
    return [encode(network_outputs(i)) for i in range(300)]


def edge_outputs(i):
    """``select``'s k >= n and omega == 0 branches, the per-k oracle and the
    tradeoff table on seeded network ``i``; every third one has zero-rate
    relays, and every tenth is all zeros."""
    s = trial_seed(2011, i)
    rng = np.random.default_rng(s)
    n = int(rng.integers(1, 11))
    rates = rng.exponential(2.0, (2, n))
    if i % 3 == 0:
        rates[:, rng.random(n) < 0.4] = 0.0
    if i % 10 == 0:
        rates[:] = 0.0
    rt = RateTable(*rates)
    omega = omega_fast(rt).value
    out = []
    for k in range(1, n + 3):
        for w in (omega, 0.0):
            sel = select(rt, k, w)
            out.append((sel.gamma, sel.omega_gamma, sel.certificate, sel.comparisons))
    out.append([omega_k_bruteforce(rt, k) for k in range(1, n + 1)])
    for model in GAP_MODELS:
        for c_bar in (omega, 0.0, -0.0, 4.0 * omega + 30.0):
            tr = hybrid_tradeoff(c_bar, 8 * n, model)
            out.append((tr.entries, tr.best_k, tr.baseline))
    return out


def harness_lines():
    """The ``verify`` reports in both k modes at nmax 12 and 16, then the
    edge outputs of 120 seeded networks."""
    lines = []
    for nmax, trials in ((12, 200), (16, 40)):
        for kmode in ("all", "random"):
            rep = run_verification(trials, nmax=nmax, kmode=kmode, seed=nmax)
            failures = [(f.seed, f.invariant, f.details) for f in rep.failures]
            lines.append(encode((rep.trials, failures, rep.max_violation)))
    return lines + [encode(edge_outputs(i)) for i in range(120)]


def test_outputs_match_the_pinned_digest():
    text = "\n".join(fingerprint_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_harness_and_edge_outputs_match_the_pinned_digest():
    text = "\n".join(harness_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == HARNESS_DIGEST


def test_encoding_tells_the_last_bit():
    x = 0.1 + 0.2
    assert encode(x) != encode(0.3)
    assert encode((1, None, Certificate(2, (0, 1)))) == "(1,None,(2,(0,1)))"
