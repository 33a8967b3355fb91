"""Numeric kernels, vectorized with numpy.

These kernels carry the arithmetic of the package: the 2**n subset-lattice
enumerations behind the brute-force oracles (``brute_omega``, an oracle
only: ``omega_bruteforce`` and ``verify``'s check of its picks; and
``sandwich_scan``), built on the per-subset folds of ``subset_max``; the
sorted suffix scan (``omega_sorted_scan``), the one code that forms the
n + 1 suffix-cut candidates, in place in one buffer of n + 1 floats per
row: ``omega_fast``, ``sandwich``, ``select`` and ``verify_selection``
run it on one row, and ``omega_rows`` (behind the oracle
``omega_k_bruteforce``) sorts each row of a stack and runs it once; the
chain recurrence behind the best-k table (``best_chains``); and the row-wise
amplify-and-forward rate (``af_rate_batch``). Each is checked in the tests against a definition
evaluated directly. ``best_chains`` keeps each round's chains as a row of
an n x n table (8 MB at n = 1000, as are its link and scratch tables) and
reads the best of every size off all rows at once.

``brute_omega`` and ``omega_rows`` take a stack of relay sets, rows of
shape (m, width), and a single set is a stack of one. Sets of different
sizes share a stack by padding with zero-rate relays. That leaves every
row's value bit for bit: rates are >= 0 and a rate table holds no -0.0, so
max(x, 0.0) is x and x + 0.0 is x, and a padded cut has the value of the
same cut without its zero relays. ``brute_omega``'s first-minimal mask is
kept too, since the padding relays are the highest bits.

``brute_omega`` keeps a running first minimum as it walks the tiles: each
tile's first minimal cut, its value read at the argmin, replaces the
running one when its value is less, or equal (0.0 and -0.0 are equal) with
a lesser mask. The tiles do not come in mask order, so a tie is settled by
the masks, not by the order of the walk.

The two oracles walk the 2**n cuts in tiles of 2**_TILE_BITS (``_cut_tiles``),
so their working memory is O(n * 2**_TILE_BITS) floats at any n, not whole
2**n tables. The walk has one code path for every n: at n <= _TILE_BITS it
yields its first table as the one tile. ``_cut_tiles`` refuses n >
``BRUTE_FORCE_LIMIT`` with a ``SizeLimitError``, the one size guard of both
oracles.

Overflow rule: a kernel forms its sums as it would with no overflow, under
``np.errstate``, so a float sum past the float64 range is inf without a
warning, and warning state changes no value. That is the whole rule of the
min-cut kernels (``brute_omega``, ``omega_sorted_scan``, ``best_chains``):
a cut or chain sum r_s + r_d that overflows is inf; each runs whole under
``np.errstate(over="ignore")`` as a decorator, which costs about half of a
``with`` block per call. ``af_rate_batch`` then
evaluates again, scaled, only the rows whose terms overflowed, and
``sandwich_scan``, whose sums are of linear SNRs, scales a whole lattice by
a power of two when they would pass the float64 range; their docstrings
have the rules.

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


def subset_max(x, fold=np.maximum):
    """Fold of ``x`` over the relays of every bitmask in 0 .. 2**n - 1.

    ``fold`` is ``np.maximum`` (per-subset maxima) or ``np.add`` (per-subset
    sums); it runs over each bitmask's relays in increasing order, starting
    from 0. ``x`` is one row of n values, or a stack of rows sharing n,
    which gives one table per row from the same loop.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    table = np.empty(x.shape[:-1] + (1 << n,))
    table[..., 0] = 0.0
    for i in range(n):
        # the masks holding relay i extend the 2**i masks below bit i
        h = 1 << i
        fold(table[..., :h], x[..., i, None], out=table[..., h : 2 * h])
    return table


# log2 of the cuts per tile of the lattice walk. Measured at n = 22 and 24
# on 2 CPUs with a 4 MB L2 cache, 13 to 15 ran fastest: smaller tiles pay
# more numpy calls per cut, larger ones more memory and cache misses.
_TILE_BITS = 14

# the most relays whose 2**n cuts the brute-force oracles walk
BRUTE_FORCE_LIMIT = 24


def _cut_tiles(rows, n_dest, fold):
    """Folds of ``rows`` over both sides of every cut, one tile at a time.

    ``rows`` has shape (R, ..., n): the first n_dest of its R blocks are
    folded over the destination side of a cut, the others over its source
    side, and the axes between hold a stack of relay sets folded alike.
    Yields ``(base, tile)`` per tile of the 2**b cuts ``base | low``, with
    b = min(n, _TILE_BITS): ``tile[r][..., low]`` for a destination block
    and ``tile[r][..., ::-1][..., low]`` for a source block (the source
    side is the complement mask) hold the folds of cut ``base | low``. The
    low b relays form one ``subset_max`` table; a depth-first walk then adds
    the relays above them, in increasing order, to one side or the other,
    so every value is folded in the order of one whole-lattice
    ``subset_max`` table. The tiles do not come in mask order; each is the
    consumer's to overwrite, and the next one is written over it. Working
    memory is O(R * n * 2**b) floats per relay set. Refuses n past
    ``BRUTE_FORCE_LIMIT``.
    """
    n = rows.shape[-1]
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force over 2**{n} cuts refused (limit n <= {BRUTE_FORCE_LIMIT})"
        )
    b = min(n, _TILE_BITS)
    low = subset_max(rows[..., :b], fold)
    # one tile per high relay, written by each branch at that depth in turn
    tile_at = np.empty((n - b,) + low.shape)
    return _walk(rows, n_dest, fold, tile_at, b, 0, low)


def _walk(rows, n_dest, fold, tile_at, i, base, tile):
    """The depth-first walk of ``_cut_tiles`` from relay i, ``tile`` holding
    the folds with relays below i placed: yields it once every relay is.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, left to the garbage collector on every call.
    """
    n = rows.shape[-1]
    if i == n:
        yield base, tile
        return
    child = tile_at[i - n]  # tile_at holds depths n - len(tile_at) .. n - 1
    dest, src = slice(0, n_dest), slice(n_dest, None)
    for side, other, bit in ((dest, src, 1 << i), (src, dest, 0)):
        fold(tile[side], rows[side, ..., i, None], out=child[side])
        child[other] = tile[other]
        yield from _walk(rows, n_dest, fold, tile_at, i + 1, base | bit, child)


@np.errstate(over="ignore")
def brute_omega(r_s, r_d):
    """Min cut value and first-minimal argmin bitmask of each relay set.

    ``r_s`` and ``r_d`` have shape (m, width), one relay set per row; a
    single set is a stack of one. Returns two length-m arrays, the values
    (float64) and the masks (int64), from one lattice walk over the 2**width
    cuts of every row at once. A row may be padded with zero-rate relays,
    which leave its value and its mask (the module docstring has why). The
    mask is each row's least mask among its minimal cuts, and the value is
    read at that mask, so it keeps the sign of a zero.
    """
    rows = np.arange(r_s.shape[0])
    values = masks = None
    for base, (max_d, max_s) in _cut_tiles(np.array((r_d, r_s)), 1, np.maximum):
        cuts = np.add(max_d, max_s[:, ::-1], out=max_d)
        idx = cuts.argmin(axis=1)
        value, mask = cuts[rows, idx], base | idx
        if values is None:
            values, masks = value, mask
        else:
            # the least value, then the least mask
            better = np.where(value == values, mask < masks, value < values)
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
    each entry is bit-identical to a row-wise evaluation. ``f[h - 1, j]`` holds
    the best chain of h relays ending at j, less its last r_s term.
    Repeating a chain's first relay keeps its value, so ``f`` never falls
    from row to row, and the rounds, O(n**2) each, stop once a row repeats
    the one before, after at most n. A link sum past the float64 range is
    inf, as in the other min-cut kernels (the module's overflow rule).
    """
    n = r_s.shape[0]
    step = r_s[:, None] + r_d  # the link from relay i to relay j
    links = np.empty_like(step)
    f = np.empty_like(step)
    f[0] = r_d
    rounds = n
    for h in range(1, n):
        np.minimum(f[h - 1, :, None], step, out=links).max(axis=0, out=f[h])
        if (f[h] == f[h - 1]).all():
            rounds = h
            break
    best = np.empty(n)
    np.minimum(f[:rounds], r_s, out=links[:rounds]).max(axis=1, out=best[:rounds])
    best[rounds:] = best[rounds - 1]
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
    for _, sums in _cut_tiles(rows, 2, np.add):
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
