"""Numeric kernels, vectorized with numpy.

These kernels carry the arithmetic of the package, each checked in the
tests against a definition evaluated directly: the 2**n subset-lattice
walks of the brute-force oracles (``brute_omega``, behind
``omega_bruteforce`` and ``verify``'s check of its picks, and
``sandwich_scan``), on the folds of ``subset_max``; the sorted suffix scan
(``omega_sorted_scan``), the one code that forms the n + 1 suffix-cut
candidates, in one buffer of n + 1 floats per row, for ``omega_fast``,
``sandwich``, ``select`` and ``verify_selection`` on one row and for
``omega_rows`` (behind ``omega_k_bruteforce``) on a sorted stack; the
chain recurrence behind the best-k table (``best_chains``), which keeps
two rows of chains beside its n x (n + 1) link and scratch tables (8 MB
each at n = 1000); and the row-wise amplify-and-forward rate
(``af_rate_batch``).

``brute_omega`` and ``omega_rows`` take a stack of relay sets, rows of
shape (m, width), and a single set is a stack of one. Sets of different
sizes share a stack by padding with zero-rate relays. That leaves every
row's value bit for bit: rates are >= 0 and a rate table holds no -0.0, so
max(x, 0.0) is x and x + 0.0 is x, and a padded cut has the value of the
same cut without its zero relays. ``brute_omega``'s first-minimal mask is
kept too, since the padding relays are the highest bits.

The two oracles walk the 2**n cuts in tiles of 2**_TILE_BITS, in one flat
loop of ``_cut_tiles`` that refolds one buffer per tile, so their working
memory is O(2**_TILE_BITS) floats per relay set at any n. It is the one
code path for every n, and the one size guard of both oracles: it refuses
n > ``BRUTE_FORCE_LIMIT`` with a ``SizeLimitError``.

Overflow rule: a kernel forms its sums as it would with no overflow, under
``np.errstate``, so a float sum past the float64 range is inf without a
warning, and warning state changes no value. That is the whole rule of the
min-cut kernels (``brute_omega``, ``omega_sorted_scan``, ``best_chains``):
a cut or chain sum r_s + r_d that overflows is inf; each runs whole under
``np.errstate(over="ignore")`` as a decorator, which costs about half of a
``with`` block per call. ``af_rate_batch`` then evaluates again, scaled,
only the rows whose terms overflowed, and ``sandwich_scan``, whose sums
are of linear SNRs, scales a whole lattice by a power of two when they
would pass the float64 range; their docstrings have the rules.

Conventions: relays are 0-indexed here; a cut is a bitmask with bit i set
when relay i sits on the destination side; the maximum over an empty index
set is 0.
"""

import math
import operator
from functools import reduce

import numpy as np

from .errors import SizeLimitError

# Read by the benchmark's environment record; numpy is the only backend.
BACKEND = "numpy"
HAVE_NUMBA = False

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "af_rate_batch",
    "best_chains",
    "brute_omega",
    "omega_rows",
    "omega_sorted_scan",
    "sandwich_scan",
    "subset_max",
]


def _fold(table, x, fold):
    """``table``, entry m its entry 0 folded with ``x`` at the relays of m in
    increasing order: the loop of ``subset_max`` and of ``_cut_tiles``."""
    for i in range(x.shape[-1]):
        # the masks holding relay i extend the 2**i masks below bit i
        h = 1 << i
        fold(table[..., :h], x[..., i, None], out=table[..., h : 2 * h])
    return table


def subset_max(x, fold=np.maximum):
    """Fold of ``x`` over the relays of every bitmask in 0 .. 2**n - 1.

    ``fold`` is ``np.maximum`` (per-subset maxima) or ``np.add`` (per-subset
    sums); it runs over each bitmask's relays in increasing order, starting
    from 0. ``x`` is one row of n values, or a stack of rows sharing n,
    which gives one table per row from the same loop.
    """
    x = np.asarray(x)
    return _fold(np.zeros(x.shape[:-1] + (1 << x.shape[-1],)), x, fold)


# log2 of the cuts per tile of the lattice walk. Measured at n = 20 to 24
# on 2 CPUs with a 4 MB L2 cache, 16 ran fastest: smaller tiles pay more
# numpy calls per cut, larger ones more memory and cache misses.
_TILE_BITS = 16

# the most relays whose 2**n cuts the brute-force oracles walk
BRUTE_FORCE_LIMIT = 24


def _cut_tiles(rows, n_dest, fold):
    """Folds of ``rows`` over both sides of every cut, one tile at a time.

    ``rows`` has shape (R, ..., n): the first n_dest of its R blocks are
    folded over the destination side of a cut, the others over its source
    side, and the axes between hold a stack of relay sets folded alike.
    Yields ``(base, a, tile)`` per mask ``base`` of the first a = n -
    min(n, _TILE_BITS) relays, in increasing order: ``tile[r][..., low]``
    (``[..., ::-1][..., low]`` in a source block, whose side is the
    complement) is the fold over cut ``base | low << a``, from the outer
    relays' ``subset_max`` entry on, in increasing relay order as in one
    whole-lattice table. Each tile is the consumer's to overwrite; the next
    one is written over it.
    """
    n = rows.shape[-1]
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force over 2**{n} cuts refused (limit n <= {BRUTE_FORCE_LIMIT})"
        )
    a = n - min(n, _TILE_BITS)
    outer = subset_max(rows[..., :a], fold)
    tile = np.empty(outer.shape[:-1] + (1 << (n - a),))
    dest, src = tile[:n_dest, ..., 0], tile[n_dest:, ..., 0]
    for base in range(1 << a):
        dest[...] = outer[:n_dest, ..., base]
        src[...] = outer[n_dest:, ..., ~base]  # the fold over base's complement
        yield base, a, _fold(tile, rows[..., a:], fold)


@np.errstate(over="ignore")
def brute_omega(r_s, r_d):
    """Min cut value and first-minimal argmin bitmask of each relay set.

    ``r_s`` and ``r_d`` have shape (m, width), one relay set per row; a
    single set is a stack of one. Returns two length-m arrays, the values
    (float64) and the masks (int64), from one lattice walk over the 2**width
    cuts of every row at once. A row may be padded with zero-rate relays,
    which leave its value and its mask (the module docstring has why). The
    mask is each row's least mask among its minimal cuts, and the value is
    read at that mask, so it keeps the sign of a zero. A tile's first
    minimal cut replaces the running one only when its value is less. A
    cut's value is max r_d over one side plus max r_s over the other, and
    rounding is monotone, so the relays that two minimal cuts share on the
    destination side form a minimal cut too: the least minimal mask, the
    common part of all, is the argmin of the first tile to hold a minimum.
    """
    rows = np.arange(r_s.shape[0])
    values = masks = None
    for base, a, (max_d, max_s) in _cut_tiles(np.array((r_d, r_s)), 1, np.maximum):
        cuts = np.add(max_d, max_s[:, ::-1], out=max_d)
        idx = cuts.argmin(axis=1)
        value, mask = cuts[rows, idx], base | idx << a
        if values is None:
            values, masks = value, mask
        else:
            # a tie keeps the earlier tile, which holds the least mask
            better = value < values
            values = np.where(better, value, values)
            masks = np.where(better, mask, masks)
    return values, masks


@np.errstate(over="ignore")
def omega_sorted_scan(s_sorted, d_sorted):
    """Min over the n+1 candidate suffix cuts of each row sorted by r_s.

    ``s_sorted`` and ``d_sorted`` have shape (..., n), each row in a stable
    r_s order. Candidate m puts the m smallest-r_s relays on the source
    side; ties in value resolve to the largest m (equivalently the smallest
    cut bitmask). Returns each row's value at that m, and the m: numpy
    scalars for one row of shape (n,).

    The candidates are written from m = n down to m = 0, so that the first
    minimum of a forward ``argmin`` is at the largest m and the suffix
    maxima of d_sorted are a forward running max of the reversed row.
    """
    n = s_sorted.shape[-1]
    rev = np.empty(s_sorted.shape[:-1] + (n + 1,))  # rev[..., j] is candidate n - j
    rev[..., 0] = s_sorted[..., -1]
    tail = rev[..., 1:]
    np.maximum.accumulate(d_sorted[..., ::-1], axis=-1, out=tail)
    tail[..., :-1] += s_sorted[..., -2::-1]
    j = rev.argmin(axis=-1)
    # each row's candidate at its m
    return rev[(*np.indices(j.shape, sparse=True), j)], n - j


@np.errstate(over="ignore")
def best_chains(r_s, r_d):
    """Max of omega over the relay subsets of each size 1..n, by relay chains.

    A chain i_1 .. i_h is worth the min of r_d[i_1], each r_s[i_t] +
    r_d[i_{t+1}] and r_s[i_h]. The best chain of at most k relays is worth
    the best k-subset's omega: every cut of a chain's relays crosses one of
    its links, and a subset's suffix-maximum chain in r_s order uses only
    omega's own candidates, the float sums ``omega_sorted_scan`` forms; so
    each entry is bit-identical to a row-wise evaluation. In round h,
    ``f[j]`` holds the best chain of h relays ending at j, less its last r_s
    term, which column n of ``step`` adds: one pass gives the next round's
    row and, at entry n, the best chain of h relays. Repeating a chain's
    first relay keeps its value, so ``f`` never falls from round to round,
    and the rounds, O(n**2) each, stop once a row repeats the one before,
    after at most n. A link sum past the float64 range is inf, as in the
    other min-cut kernels (the module's overflow rule).
    """
    n = r_s.shape[0]
    step = np.empty((n, n + 1))  # the link from relay i to relay j, or to the end
    np.add(r_s[:, None], r_d, out=step[:, :n])
    step[:, n] = r_s
    links = np.empty_like(step)
    f, g = np.empty((2, n + 1))
    f[:n] = r_d
    best = np.empty(n)
    for h in range(n):
        np.minimum(f[:n, None], step, out=links).max(axis=0, out=g)
        best[h] = g[n]
        if (g[:n] == f[:n]).all():
            break
        f, g = g, f
    best[h + 1 :] = best[h]
    return best


def omega_rows(r_s, r_d):
    """Min-cut value of the relay set in each row of ``r_s`` and ``r_d``.

    Both have shape (m, width); a row may be padded with zero-rate relays,
    which leave its value bit for bit. Each row is put in a stable r_s
    order and the stack goes through ``omega_sorted_scan``, so a row's
    value is bit-identical to ``omega_fast`` of its rates.
    """
    rows = np.arange(r_s.shape[0])[:, None]
    order = r_s.argsort(axis=1, kind="stable")  # each row sorted by r_s
    return omega_sorted_scan(r_s[rows, order], r_d[rows, order])[0]


def sandwich_scan(ts2, td2, td):
    """Cut-set bracketing mins over all cuts.

    Per cut: lower = log2(1 + sum ts2 over source side)
                   + log2(1 + sum td2 over destination side),
             upper = same source term + log2(1 + (sum td over dest)**2).
    Returns (min lower, min upper).

    Overflow rule: the fold adds a side's terms in index order, rounding is
    monotone and the terms are nonnegative, so no side sum, nor (sum
    td)**2, exceeds the sum of all n terms in index order, formed once per
    row on Python floats, which never warn. When one of these three is inf
    (linear SNRs near 2**1023), every cut is evaluated on ts2 and td2 scaled
    by 2**-32 and td by 2**-16, exact powers of two: each log term is then
    log2(2**-32 + scaled sum), 32 short, and 64 is added back to both mins.
    With n <= ``BRUTE_FORCE_LIMIT`` the scaled sums stay below 2**1001.
    Every other bracket is the expression above, bit for bit.
    """
    rows = np.array((td2, td, ts2))
    # each row's sum in index order, 0 for no relay; not ``sum``, which adds
    # floats with compensation from Python 3.12
    d2, d, s2 = (reduce(operator.add, row, 0.0) for row in rows.tolist())
    one, shift = 1.0, 0.0
    if max(d2, d * d, s2) == math.inf:
        one, shift = 2.0**-32, 64.0
        rows *= np.array([[one], [2.0**-16], [one]])
    lower = upper = np.inf
    for *_, sums in _cut_tiles(rows, 2, np.add):
        # in place: log2(one + sum) per row, the dest-side td sum squared first
        np.multiply(sums[1], sums[1], out=sums[1])
        np.add(sums, one, out=sums)
        np.log2(sums, out=sums)
        src = sums[2, ::-1]
        np.add(src, sums[0], out=sums[0])  # the lower form per cut
        np.add(src, sums[1], out=sums[1])  # the upper form
        low, up = np.minimum.reduce(sums[:2], axis=1).tolist()
        lower, upper = min(lower, low), min(upper, up)
    return lower + shift, upper + shift


def af_rate_batch(w, v, snr, alphas):
    """Amplify-and-forward rate for each row of amplification coefficients.

    ``w`` and ``v`` are the per-relay signal and noise weights precomputed
    from the gains; they and the rows ``a`` are nonnegative.
    rate = log2(1 + snr * (w.a)**2 / (1 + v.a**2)).

    Overflow rule: a row whose num = w.a gives an infinite snr * num * num,
    or whose den = 1 + v.a**2 is infinite, is evaluated again on w scaled by
    2**-256 and v by 2**-512, exact powers of two that cancel in the SNR,
    and in logs: rate = log2(1 + 2**y), y = log2(snr) + 2*log2(num) -
    log2(den) on the scaled sums. Every other row is the expression above,
    bit for bit.

    A row's rate is the same bit for bit alone and at any position in any
    batch: ``np.vecdot`` forms one dot product per C-ordered row, whose
    order depends only on n. A matrix product (``@``) sums in an order that
    depends on the number of rows, and so does ``einsum`` once a row is
    longer than numpy's 8192-element buffer.
    """
    alphas = np.ascontiguousarray(alphas)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.vecdot(alphas, w)
        den = 1.0 + np.vecdot(alphas * alphas, v)
        x = snr * num * num
        rate = np.log2(1.0 + x / den)
        big = np.maximum(x, den) == math.inf  # x or den overflowed
        if big.any():
            a = alphas[big]
            num = np.vecdot(a, w * 2.0**-256)
            den = 2.0**-512 + np.vecdot(a * a, v * 2.0**-512)
            y = math.log2(snr) + 2.0 * np.log2(num) - np.log2(den)
            rate[big] = np.logaddexp2(0.0, y)
    return rate
