"""A pinned fingerprint of every float the desk-scale paths return.

The CLI golden cases run only a few ``verify`` trials, so a last-bit drift
in a kernel could pass them unseen. This test runs the fast paths, their
oracles, the bracketing bounds and the AF optimizer on 300 seeded networks
and hashes the ``float.hex`` of every output: a refactor that is meant to
keep each result bit for bit keeps the digest. The digest was taken with
numpy 2.4 on x86-64 Linux; a numpy or BLAS whose log, exp or matrix
products round differently gives another one without any fault here.
"""

import hashlib
import math

import numpy as np

from diamondnet import (
    Cut,
    af_optimize,
    omega_bruteforce,
    omega_fast,
    omega_k_table,
    random_network,
    rate_table,
    sandwich,
    select,
    trial_seed,
    verify_selection,
)
from diamondnet.selection import Certificate

# SHA-256 of ``fingerprint_lines()``, one line per network, joined by "\n"
DIGEST = "b7290800147b9d202631ef7a80ac4c7de412ea3ba832ef664933347a078288ab"


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
    out.append((opt.rate, opt.alpha.alpha, opt.upper_bound, opt.c1))
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


def test_outputs_match_the_pinned_digest():
    text = "\n".join(fingerprint_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_encoding_tells_the_last_bit():
    x = 0.1 + 0.2
    assert encode(x) != encode(0.3)
    assert encode((1, None, Certificate(2, (0, 1)))) == "(1,None,(2,(0,1)))"
