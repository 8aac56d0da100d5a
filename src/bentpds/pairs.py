"""Exact difference counts of a point set D of a Space: counts[g] =
#{(d1, d2) in D^2 : d1 - d2 = g} for every g, the engine of the pair-count
verifier (pds.verify_pds_bruteforce).

D's ranks are split as r = hi q1 + lo, q1 = p^low_digits, into low and
high digit values, q2 of them (_rank_split), and a difference of two
ranks is two lookups in digitwise subtraction tables.  There are two exact routes: a sparse set
gathers one table entry per ordered pair, |D|^2 in all (_gather_counts);
a dense one multiplies float32 indicator matrices, one product per orbit
of high-digit differences under a cyclic group G of per-half
multiplications (x_lo, x_hi) -> (c_lo x_lo, c_hi x_hi) that fixes D,
1 + (q2 - 1) / n products of (q2 + 1) / 2 rows, n the order of c_hi, about
v q1 / 2 multiply-adds each (_dense_counts).  As -D = D, the pair (x, y)
and the pair (-y, -x) have the same difference, so of the high-digit rows
h and gh - h, which count alike, one is multiplied, with weight 2.

G is found from D alone (_orbit_group), and handed on as its generator's
maps y -> c_lo y and y -> c_hi y of the two halves.  When the split falls
between two factor fields, as on GF(p^m)^2, and q2 >= LIFT_MIN_Q2, c_hi
is the least power w^k of a primitive w of the high field with a lift
(c_lo, w^k); otherwise G is the scalars S that fix D (n = |S|).
Preimage sets of an l-form are unions of GF(p)^*-orbits, so |S| = p - 1;
those of the Maiorana-McFarland and spread functions on GF(p^m)^2 are
fixed by (x, y) -> (mu^{-e} x, mu y) or (mu x, mu y) for every mu, so
n = q2 - 1 and two products give every count.

Nothing here reads a function, a transform or a certificate: the counts
are an independent route to the character criterion's verdict.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SizeGuard
from .field import Field, _prime_factors, canonical_field
from .limits import SCRATCH_BYTES, exact_float_dtype
from .space import Space, _compose, _scaling


@lru_cache(maxsize=None)
def _half_sub_table(p: int, width: int) -> np.ndarray:
    """T[x, y] = digitwise (x - y) mod p on width base-p digits, packed;
    at width 0 the one entry 0.  Shared between calls, so read-only."""
    digit = np.arange(p, dtype=np.int64)
    table = _compose([(digit[:, None] - digit) % p] * width, axes=2)
    table.setflags(write=False)
    return table


class _RankSplit(NamedTuple):
    """The ranks of D split as r = hi q1 + lo, q1 = p^h1, into h1 low and
    h2 high base-p digits, with the digitwise subtraction table of each
    block (_half_sub_table): a difference of two ranks is two lookups.
    halves holds the two factor fields (low, high) when the split falls
    between exactly two factors, as on GF(p^m) x GF(p^m), else None."""

    p: int
    h1: int
    h2: int
    hi: np.ndarray
    lo: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    halves: tuple[Field, Field] | None


def _rank_split(space: Space, Dv: np.ndarray) -> _RankSplit:
    """The split of both pair-count routes, h1 = space.low_digits.  The dense
    route needs every product entry, a weighted count up to q2 + 1 with
    q2 = p^h2, exact in float32, and t_hi has q2^2 entries, so past that
    this raises SizeGuard before building anything.  float64 would first be
    needed at q2 = 2^24, that is v >= 2^48 points, whose tables no memory
    holds."""
    p, dim, h1 = space.p, space.dim, space.low_digits
    q1, q2 = p ** h1, p ** (dim - h1)
    if exact_float_dtype(q2 + 1) != np.float32:
        raise SizeGuard(f"{q2} high-digit values are not exact in float32")
    hi, lo = np.divmod(Dv, q1)
    factors = space.factors
    halves = factors if len(factors) == 2 and factors[0].m == h1 else None
    return _RankSplit(p, h1, dim - h1, hi, lo,
                      _half_sub_table(p, h1), _half_sub_table(p, dim - h1), halves)


def _gather_counts(split: _RankSplit) -> np.ndarray:
    """counts[g] = #{(d1, d2) in D^2 : d1 - d2 = g}, one table lookup per
    ordered pair: |D|^2 gathers in blocks of about 4M pairs."""
    p, h1, h2, hi, lo, t_lo, t_hi, _ = split
    q1, v = p ** h1, p ** (h1 + h2)
    counts = np.zeros(v, dtype=np.int64)
    N = lo.size
    block = max(1, min(N, 4_000_000 // N))
    for start in range(0, N, block):
        rows = slice(start, start + block)
        ranks = t_lo[lo[rows, None], lo[None, :]] + q1 * t_hi[hi[rows, None], hi[None, :]]
        counts += np.bincount(ranks.ravel(), minlength=v)
    return counts


# The least q2 at which _orbit_group looks for a group beyond the scalars.
# Below it the search cost more than the products it saved (see
# _orbit_group).
LIFT_MIN_Q2 = 64
# members that filter the candidate lifts before the exact check
_PROBES = 16


def _fixes(split: _RankSplit, M: np.ndarray, lo_maps: np.ndarray, hi_map: np.ndarray):
    """phi D = D for phi(x_lo, x_hi) = (lo_map[x_lo], hi_map[x_hi]), per
    lo_map of lo_maps (one map, or one per row), the maps being rank
    permutations of the two halves: one exact lookup of phi(D) in the
    indicator M[hi, lo].  phi is a bijection, so phi D within D is
    phi D = D."""
    return M[hi_map[split.hi], lo_maps[..., split.lo]].all(axis=-1)


def _lift(split: _RankSplit, M: np.ndarray, hi_map: np.ndarray):
    """(y -> c_lo y, hi_map) with (c_lo, c_hi) D = D, or None, for hi_map
    y -> c_hi y.  If (h, l) is in D with l != 0, then (c_lo l, c_hi h) is
    in D, so the candidates are x / l for the x != 0 in row c_hi h of M,
    none 0; a D on the axis l = 0 has the one candidate 1.  _PROBES members
    spread over D filter them, and _fixes checks the survivors exactly: the
    first alone, since it is a lift unless a wrong candidate got past the
    probes, then the rest in blocks whose int64 member lookups fit in
    SCRATCH_BYTES.  A refused block's first candidate moves some member out
    of D, and a lift keeps it in D, so the rest are first tested there."""
    lo_f = split.halves[0]
    hi, lo = split.hi, split.lo
    moved = hi_map[hi]  # the high digits of (c_lo, c_hi) D
    anchor = int(np.argmax(lo != 0))
    if lo[anchor]:
        row = np.flatnonzero(M[moved[anchor]])
        candidates = lo_f.mul(row[row != 0], lo_f.inv(int(lo[anchor])))
    else:
        candidates = np.ones(1, dtype=np.int64)
    probe = np.arange(_PROBES) * (lo.size - 1) // (_PROBES - 1)
    images = M[moved[probe], lo_f.mul(candidates[:, None], lo[probe])]
    candidates, rows = candidates[images.all(axis=1)], 1
    while candidates.size:
        block, candidates = candidates[:rows], candidates[rows:]
        maps = lo_f.mul(block[:, None], np.arange(lo_f.size))
        fixed = _fixes(split, M, maps, hi_map)
        if fixed.any():
            return maps[fixed.argmax()], hi_map
        if candidates.size:  # block[0] moves member j out of D
            j = int(np.argmin(M[moved, maps[0, lo]]))
            kept = M[moved[j], lo_f.mul(candidates, int(lo[j]))]
            candidates = candidates[kept != 0]
        rows = max(1, SCRATCH_BYTES // (8 * lo.size))
    return None


def _least_lift(K: int, lift, top):
    """(k, lift(k)) for the least divisor k of K with lift(k) not None,
    given that the k which lift are the multiples of the least one and that
    K lifts to top.  k = 1 is tried first; otherwise k starts at K and is
    divided by each prime r of K while k / r lifts, which ends at the least
    k after at most one failed lift per prime.  At K = 1 nothing is tried."""
    if K > 1 and (found := lift(1)) is not None:
        return 1, found
    k, least = K, top
    for r in _prime_factors(K):
        while k % r == 0 and k > r and (found := lift(k // r)) is not None:
            k, least = k // r, found
    return k, least


def _orbit_group(split: _RankSplit, M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(lo_map, hi_map, n): a generator phi(x_lo, x_hi) = (c_lo x_lo, c_hi
    x_hi) of a group G of per-half multiplications with phi D = D, as its
    maps y -> c_lo y and y -> c_hi y of the halves, for a D with -D = D
    given by its rank split and its indicator M[hi, lo], and the order n of
    c_hi.  count(phi g) = count(g), as phi maps the pairs of g onto those
    of phi g, so one row per G-orbit of high digits is multiplied
    (_orbit_tables).

    G holds -1, and its image on the high half is cyclic: <w^k0> for a
    primitive w and the least k0 | K = (q - 1) / 2 such that w^k0 lifts to
    an element of G, as w^K = -1 lifts to -1; _least_lift finds k0.

    When the split falls between two factor fields and q2 >= LIFT_MIN_Q2,
    w is primitive in the high field, q = q2, and _lift looks for c_lo.
    On GF(p^m)^2 every preimage of Tr(a x y^e) is fixed by
    (x, y) -> (mu^{-e} x, mu y), and every spread set by (x, y) ->
    (mu x, mu y), so k0 = 1 and two products give every count.  Otherwise
    G is S = {+-1} . {lam in GF(p)^* : lam D = D}, scalars that act on
    every split alike (_scaling), with w primitive in GF(p) and q = p;
    lam lifts when _fixes finds lam D or -lam D is D, so S is the same
    group when -D != D: a few O(|D|) tests, at most 6 at p = 13 and none
    at p = 3.

    LIFT_MIN_Q2 = 64 is where the search began to pay.  With
    single-threaded BLAS on a 2-vCPU Xeon VM, verify_pds_bruteforce on a
    mm-power D_0 took, without the search and with it (median of 3 runs,
    best of 15 calls each): 0.11 and 0.35 ms at 3^4 (q2 = 9), 0.19 and
    0.43 ms at 5^4 (q2 = 25), 0.21 and 0.46 ms at 3^6 (q2 = 27), 0.32 and
    0.55 ms at 7^4 (q2 = 49), 1.47 and 0.71 ms at 3^8 (q2 = 81), 3.6 and
    1.7 ms at 5^6 (q2 = 125), 57 and 8 ms at 3^10 (q2 = 243).  With one +-x
    pair toggled the search finds nothing and is pure loss: 1.50 and
    2.54 ms at 3^8."""
    p, h1, h2 = split.p, split.h1, split.h2
    field = split.halves is not None and p ** h2 >= LIFT_MIN_Q2
    q = p ** h2 if field else p

    def scaled(c):  # y -> c y on both halves, c in GF(p)
        return _scaling(p, h1, c), _scaling(p, h2, c)

    def lift(k):  # a generator with the high map y -> w^k y, or None
        if field:
            high = split.halves[1]
            return _lift(split, M, high.mul(high.pow(high.primitive_element, k), np.arange(q)))
        lam = pow(canonical_field(p, 1).primitive_element, k, p)
        return scaled(lam) if any(_fixes(split, M, *scaled(c)) for c in (lam, p - lam)) else None

    k, (lo_map, hi_map) = _least_lift((q - 1) // 2, lift, scaled(p - 1))
    return lo_map, hi_map, (q - 1) // k


@lru_cache(maxsize=None)
def _orbit_tables(p: int, h2: int, hi: bytes, n: int) -> tuple[np.ndarray, ...]:
    """reps, hx, hy and dest for the group of order n generated by the
    bytes hi of _orbit_group's int64 hi_map (y -> c_hi y, q2 = p^h2 ranks).
    reps holds the least rank gh of each orbit, 0 first; dest[j] the ranks
    c_hi^j gh of the nonzero reps, j < n; hx and hy = hx - gh, for each
    rep, the (q2 + 1) / 2 rows that its product reads.  The orbit minima
    and dest are built by doubling, from the maps c_hi^(2^t).  Cached for
    scalar and field groups alike, so read-only.

    For a symmetric D, (x, y) -> (-y, -x) maps the ordered pairs with
    difference g onto themselves and the high digit h of x to gh - h, so
    rows h and gh - h add the same to count(g).  hx holds first h0 = gh / 2
    digit by digit, the one fixed point as p is odd, of weight 1, then the
    h < gh - h, one of each other pair, of weight 2."""
    q2 = p ** h2
    ranks = np.arange(q2)
    powers = [np.frombuffer(hi, dtype=np.int64)]
    while 2 ** len(powers) < n:
        powers.append(powers[-1][powers[-1]])
    orbit_min = ranks
    for power in powers:
        orbit_min = np.minimum(orbit_min, orbit_min[power])
    reps = np.flatnonzero(orbit_min == ranks)
    dest = reps[None, 1:]
    for power in powers:
        dest = np.concatenate([dest, power[dest]])
    t_hi = _half_sub_table(p, h2)
    h0 = _scaling(p, h2, (p + 1) // 2)[reps]  # (p + 1) / 2 = 1 / 2 mod p
    pairs = np.nonzero(ranks < t_hi[reps])[1].reshape(reps.size, (q2 - 1) // 2)
    hx = np.concatenate([h0[:, None], pairs], axis=1)
    tables = reps, hx, t_hi[hx, reps[:, None]], dest[:n]
    for table in tables:
        table.setflags(write=False)
    return tables


def _dense_counts(split: _RankSplit) -> np.ndarray:
    """The same counts from the indicator matrix M[hi, lo] of D, which must
    satisfy -D = D.  For a high-digit difference gh, P = (w M[hx])^T M[hy]
    over the rows hx of _orbit_tables, of weight w, counts the pairs (h, l1),
    (h - gh, l2) in D, and summing P along the low-digit difference
    t_lo[l1, l2] gives the row counts[gh, :].  Since count(phi g) =
    count(g) for the generator phi = (c_lo, c_hi) of _orbit_group, only the
    least gh of each orbit is multiplied: 1 + (q2 - 1) / n products of
    (q2 + 1) / 2 rows, about v q1 / 2 multiply-adds each, whatever |D| is.
    Every other row is written as counts[c_hi^j gh, c_lo^j gl] =
    counts[gh, gl], by doubling j.  The products of several reps share one
    matmul while P and its gather fit in SCRATCH_BYTES.

    The products run in float32.  An entry of P, and every partial sum
    behind it, is an integer in [0, q2 + 1], which _rank_split keeps exact.
    A row sum, and every partial sum behind it, is at most
    count(g) <= |D| <= v, summed in exact_float_dtype(v)."""
    p, h1, h2, hi, lo, t_lo, _, _ = split
    q1, q2 = p ** h1, p ** h2
    M = np.zeros((q2, q1), dtype=np.float32)
    M[hi, lo] = 1
    lo_map, hi_map, n = _orbit_group(split, M)
    reps, hx, hy, dest = _orbit_tables(p, h2, hi_map.tobytes(), n)
    counts = np.zeros((q2, q1), dtype=np.int64)
    sum_dtype = exact_float_dtype(q1 * q2)
    # P.ravel()[along[l1, gl]] = P[l1, l1 - gl], built per call, since a
    # cached (q1, q1) int64 table per group would stay in memory.  Every
    # index is in range, so mode="wrap" changes no entry; it skips the
    # bounds check, which took over half of each take at 3^10.
    along = t_lo + np.arange(0, q1 * q1, q1)[:, None]
    batch = max(1, SCRATCH_BYTES // (8 * q1 * q1))  # P and its gather, float32
    for start in range(0, reps.size, batch):
        b = slice(start, start + batch)
        Mx = M[hx[b]]
        Mx[:, 1:] *= 2  # every row but h0 stands for its mirror as well
        P = np.matmul(Mx.transpose(0, 2, 1), M[hy[b]])
        P = P.reshape(-1, q1 * q1).take(along, axis=1, mode="wrap")
        counts[reps[b]] = P.sum(axis=1, dtype=sum_dtype)
    # rows j + step of dest from rows j: counts[c_hi^s gh, c_lo^s y] =
    # counts[gh, y] at s = step, through up = lo_map^step
    step, up = 1, lo_map
    while step < n:
        src = dest[:min(step, n - step)]
        counts[dest[step:step + len(src), :, None], up] = counts[src]
        step, up = 2 * step, up[up]
    return counts.ravel()
