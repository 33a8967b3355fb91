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
    """Max of ``x`` over the relays of every bitmask in 0 .. 2**n - 1.

    ``x`` is one row of n rates, or a stack of rows sharing n, which gives
    one table per row from the same loop.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    table = np.empty(x.shape[:-1] + (1 << n,))
    table[..., 0] = 0.0
    for i in range(n):
        # the masks holding relay i extend the 2**i masks below bit i
        h = 1 << i
        np.maximum(table[..., :h], x[..., i, None], out=table[..., h : 2 * h])
    return table


def brute_omega(r_s, r_d):
    """Min cut value and first-minimal argmin bitmask over all 2**n cuts."""
    max_d, max_s = subset_max(np.array((r_d, r_s)))
    values = max_d + max_s[::-1]  # complement of mask
    idx = int(values.argmin())
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
    m_best = n - int(cand[::-1].argmin())
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
    m_rows, k = members.shape
    rows = np.arange(m_rows)
    order = r_s[members].argsort(axis=1, kind="stable")
    members = members[rows[:, None], order]  # each row sorted by r_s
    s_sorted = r_s[members]
    suff = np.maximum.accumulate(r_d[members][:, ::-1], axis=1)[:, ::-1]
    # candidate m: max r_d over sorted relays m.. plus r_s of relay m-1,
    # with the first term absent at m = k and the second at m = 0
    cand = np.concatenate((suff, s_sorted[:, -1:]), axis=1)
    cand[:, 1:k] += s_sorted[:, : k - 1]
    # the largest minimizing m, as in omega_sorted_scan (ties of 0.0 and
    # -0.0 resolve the same way)
    return cand[rows, k - cand[:, ::-1].argmin(axis=1)]


def sandwich_scan(ts2, td2, td):
    """Cut-set bracketing mins over all cuts.

    Per cut: lower = log2(1 + sum ts2 over source side)
                   + log2(1 + sum td2 over destination side),
             upper = same source term + log2(1 + (sum td over dest)**2).
    Returns (min lower, min upper).
    """
    rows = np.array((ts2, td2, td))
    n = rows.shape[1]
    sums = np.empty((3, 1 << n))
    sums[:, 0] = 0.0
    for i in range(n):
        h = 1 << i
        np.add(sums[:, :h], rows[:, i, None], out=sums[:, h : 2 * h])
    # in place: log2(1 + sum) per row, the dest-side td sum squared first
    np.multiply(sums[2], sums[2], out=sums[2])
    np.add(sums, 1.0, out=sums)
    np.log2(sums, out=sums)
    src = sums[0, ::-1]  # the source side of a cut is the complement mask
    per_cut = src + sums[1]
    lower = float(per_cut.min())
    np.add(src, sums[2], out=per_cut)  # the upper form, in the same buffer
    return lower, float(per_cut.min())


def af_rate_batch(w, v, snr, alphas):
    """Amplify-and-forward rate for each row of amplification coefficients.

    ``w`` and ``v`` are the per-relay signal and noise weights precomputed
    from the gains; rate = log2(1 + snr * (w.a)**2 / (1 + v.a**2)).
    """
    num = alphas @ w
    den = 1.0 + (alphas * alphas) @ v
    return np.log2(1.0 + snr * num * num / den)
