"""Numeric kernels, vectorized with numpy.

These kernels carry the arithmetic of the package: the 2**n subset-lattice
enumerations behind the brute-force oracles (``brute_omega``,
``sandwich_scan``) and behind the best-k subnetwork table
(``omega_by_size``), all built on the per-subset maxima of ``subset_max``;
the sorted suffix scan behind ``omega_fast`` (``omega_sorted_scan``); the
row-wise min-cut of many subnetworks (``omega_rows``); and the row-wise
amplify-and-forward rate (``af_rate_batch``). Each is checked in the tests
against a definition evaluated directly.

Conventions: relays are 0-indexed here; a cut is a bitmask with bit i set
when relay i sits on the destination side; the maximum over an empty index
set is 0.
"""

import numpy as np

# Read by the benchmark's environment record; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "af_rate_batch",
    "brute_omega",
    "omega_by_size",
    "omega_rows",
    "omega_sorted_scan",
    "sandwich_scan",
    "subset_max",
]


def subset_max(x):
    """Max of ``x`` over the relays of every bitmask in 0 .. 2**n - 1."""
    table = np.zeros(1)
    for xi in x:
        table = np.concatenate([table, np.maximum(table, xi)])
    return table


def brute_omega(r_s, r_d):
    """Min cut value and first-minimal argmin bitmask over all 2**n cuts."""
    values = subset_max(r_d) + subset_max(r_s)[::-1]  # complement of mask
    idx = int(np.argmin(values))
    return float(values[idx]), idx


def omega_sorted_scan(s_sorted, d_sorted):
    """Min over the n+1 candidate suffix cuts of a table sorted by r_s.

    Candidate m puts the m smallest-r_s relays on the source side; ties in
    value resolve to the largest m (equivalently the smallest cut bitmask).
    """
    n = s_sorted.shape[0]
    suff = np.maximum.accumulate(d_sorted[::-1])[::-1]
    cand = np.empty(n + 1)
    cand[0] = suff[0]
    if n > 1:
        cand[1:n] = suff[1:] + s_sorted[: n - 1]
    cand[n] = s_sorted[n - 1]
    m_best = n - int(np.argmin(cand[::-1]))
    return float(cand[m_best]), m_best


def omega_by_size(s_sorted, d_sorted):
    """Max of omega over the relay subsets of each size 0..n, by lattice pass.

    omega(S) is the min over splits of S of max r_s on one part plus max r_d
    on the other. With the relays sorted by r_s, the splits at each relay j
    of S suffice: r_s[j] plus the max r_d over the relays of S above j, and
    the max r_d over all of S. These are the float sums ``omega_rows`` forms,
    so each entry is bit-identical to a row-wise evaluation. One vectorized
    pass per relay lowers all 2**n subset values at once.
    """
    n = s_sorted.shape[0]
    max_d = subset_max(d_sorted)
    omega = max_d.copy()
    for j in range(n):
        # the subsets holding relay j, indexed by their relays above j
        held = omega.reshape(-1, 2, 1 << j)[:, 1, :]
        above = max_d[:: 1 << (j + 1)]
        np.minimum(held, (s_sorted[j] + above)[:, None], out=held)
    best = np.zeros(n + 1)
    np.maximum.at(best, np.bitwise_count(np.arange(1 << n)), omega)
    return best


def omega_rows(members, r_s, r_d):
    """Min-cut value of the subnetwork in each row of ``members``."""
    s_rows = r_s[members]
    d_rows = r_d[members]
    order = np.argsort(s_rows, axis=1, kind="stable")
    s_sorted = np.take_along_axis(s_rows, order, axis=1)
    d_sorted = np.take_along_axis(d_rows, order, axis=1)
    m_rows, k = members.shape
    suff = np.maximum.accumulate(d_sorted[:, ::-1], axis=1)[:, ::-1]
    cand = np.empty((m_rows, k + 1))
    cand[:, 0] = suff[:, 0]
    if k > 1:
        cand[:, 1:k] = suff[:, 1:] + s_sorted[:, : k - 1]
    cand[:, k] = s_sorted[:, k - 1]
    return cand.min(axis=1)


def sandwich_scan(ts2, td2, td):
    """Cut-set bracketing mins over all cuts.

    Per cut: lower = log2(1 + sum ts2 over source side)
                   + log2(1 + sum td2 over destination side),
             upper = same source term + log2(1 + (sum td over dest)**2).
    Returns (min lower, min upper).
    """
    n = ts2.shape[0]
    sum_s2 = np.zeros(1)
    sum_d2 = np.zeros(1)
    sum_d = np.zeros(1)
    for i in range(n):
        sum_s2 = np.concatenate([sum_s2, sum_s2 + ts2[i]])
        sum_d2 = np.concatenate([sum_d2, sum_d2 + td2[i]])
        sum_d = np.concatenate([sum_d, sum_d + td[i]])
    src = np.log2(1.0 + sum_s2[::-1])
    lower = src + np.log2(1.0 + sum_d2)
    upper = src + np.log2(1.0 + sum_d * sum_d)
    return float(lower.min()), float(upper.min())


def af_rate_batch(w, v, snr, alphas):
    """Amplify-and-forward rate for each row of amplification coefficients.

    ``w`` and ``v`` are the per-relay signal and noise weights precomputed
    from the gains; rate = log2(1 + snr * (w.a)**2 / (1 + v.a**2)).
    """
    num = alphas @ w
    den = 1.0 + (alphas * alphas) @ v
    return np.log2(1.0 + snr * num * num / den)
