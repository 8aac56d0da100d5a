"""Walsh spectra over Z[zeta_p], bentness classification, duals, and
vectorial dual-bent certificates.

The full transform W_f(a) = sum_x zeta^{f(x) - <a,x>} is computed by a
radix-p fast transform: n rounds of exact p-point DFTs over Z[zeta_p], one
per GF(p)-coordinate.  Ring arrays in the transform are exponent counts of
shape (p, p^n), C[j, x] = the coefficient of zeta^j at x, exponent-major
with x's digits most significant first.  A pass multiplies by zeta^{-u t}
(t the top digit of x left, u that of the frequency), which sends exponent
j to j - u t: a fixed 0/1 map from the p^2 pairs (j, t) to the pairs
(u, j').  For p <= DENSE_PASS_MAX_P a pass is one stacked BLAS product of
that (p^2, p^2) matrix with the counts of every frequency prefix made so
far; only 1 in p of its p^4 entries is nonzero, so for larger p a pass is
p^2 slice-adds of shifted exponent rows instead.  u lands above j', so
after n passes the frequencies are in natural order with no transpose or
digit reversal.  The last T passes (T = 3 at p = 3, 2 at p = 5, else 1)
and the reduction to the basis {1, zeta, ..., zeta^{p-2}} (the
cyclo.reduce_counts rule, applied to the matrix) are one 2-D product with
a {-1, 0, 1} matrix, so the transform ends in (p^n, p - 1) reduced counts.
It runs in place: one (p, p^n) buffer and a fixed scratch array hold
everything, and the reduced counts end up at the front of the buffer
(_digit_transform).  The counts are floats: every count and partial sum
has magnitude at most p^n, the signed ones of the reduction included,
which is exact in float32 while p^n < 2^24 and in float64 while
p^n < 2^53 (limits.exact_float_dtype).
Every decision reads these reduced float counts: classification here and
the character verifier of pds.  Only walsh_full gathers them into the
order of a (Space.gather_dual) and casts them to the int64 rows of
WalshSpectrum.  The naive quadratic sum, its cross-check oracle, is held by
the tests.

Bentness and regularity are decided by exact candidate matching alone.  By
Kumar, Scholtz and Welch (1985), every Walsh value of a p-ary bent
function, weakly regular or not, is one of the 2p ring elements
+-u zeta^j, where u = p^{n/2} for even n and u = p^{(n-1)/2} g for odd n
(g the quadratic Gauss sum, an exact square root of p^* in the ring).
Each candidate has |u zeta^j|^2 = p^n, so f is bent iff every value
matches one, and no norm is formed.  There are no tolerances anywhere.
For odd n the recorded sign is relative to that Gauss-sum normalisation.
Matching is key-then-verify, in fixed-size chunks of rows and one column
of counts at a time: each row gets one int64 key (a dot product with fixed
pseudo-random weights, wrapping mod 2^64), a binary search among the 2p
distinct candidate keys proposes one candidate, and a column-wise equality
confirms it.  A row equal to a candidate has that candidate's key, so it
is found; any other row fails the equality, so the match stays exact
whatever the keys collide with.

Certificates use one transform per GF(p)^* orbit of components.  For
lambda in GF(p)^*, F_{lambda c} = lambda F_c, and
W_{lambda f}(a) = sigma_lambda(W_f(lambda^{-1} a)) with sigma_lambda the
automorphism zeta -> zeta^lambda.  It fixes p^{n/2} and sends g to
eta(lambda) g (eta the quadratic character of GF(p)), so lambda f is bent
iff f is, (lambda f)^*(a) = lambda f^*(lambda^{-1} a), and its sign is
eps_f for even n and eta(lambda) eps_f for odd n.  Certification keeps
component and dual tables in the narrowest dtype that holds [0, p), one
orbit's at a time, and finds each dual among the components of the
claimed dual by a CRC-32 key confirmed by exact comparison.
"""
from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CyclotomicInt, gauss_sum, reduce_counts
from .errors import (
    MatchFailure,
    NotBent,
    PreconditionF0,
    SizeGuard,
    ZeroComponent,
)
from .field import Field, _integer_entries, canonical_field
from .limits import exact_float_dtype, walsh_cap
from .space import Space


# ---------------------------------------------------------------------------
# function tables
# ---------------------------------------------------------------------------

class VectorialFunction:
    """F: V_n -> GF(p^s), stored as a table of codomain ranks.  A p-ary
    function (components, duals, l-forms) is the case s = 1, with codomain
    canonical_field(p, 1)."""

    def __init__(self, domain: Space, codomain: Field, table):
        if codomain.p != domain.p:
            raise ValueError("domain and codomain characteristics differ")
        arr = np.asarray(table)
        if arr.shape != (domain.size,):
            raise ValueError(f"table must have length {domain.size}")
        # integers beyond int64 give a float, object or uint64 array
        if arr.dtype.kind not in "iu" or not _integer_entries(table):
            raise ValueError("table entries must be int64 integers")
        if arr.min() < 0 or arr.max() >= codomain.size:
            raise ValueError("table entries must lie in [0, p^s)")
        self.domain = domain
        self.codomain = codomain
        self.table = arr.astype(np.int64, copy=False)

    @property
    def p(self) -> int:
        return self.domain.p

    @property
    def s(self) -> int:
        return self.codomain.m

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        return (
            isinstance(other, VectorialFunction)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.table, other.table)
        )

    def to_dict(self) -> dict:
        return {
            "space": self.domain.to_list(),
            "codomain": {"p": self.p, "s": self.s},
            "table": self.table.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VectorialFunction":
        """The inverse of to_dict; 'table' may also be an integer array, as
        the CLI's table reader gives it."""
        cod = d["codomain"]
        return cls(
            Space.from_list(d["space"]),
            canonical_field(cod["p"], cod["s"]),
            d["table"],
        )


def _check_p_ary(f: VectorialFunction) -> None:
    """Walsh spectra and l-forms are defined for values in GF(p)."""
    if f.s != 1:
        raise ValueError(f"a p-ary (s = 1) function is needed, got s = {f.s}")


def component(F: VectorialFunction, c: int) -> VectorialFunction:
    """F_c(x) = Tr_1^s(c F(x)) for nonzero c in the codomain."""
    if c == 0:
        raise ZeroComponent("component index must be nonzero")
    F.codomain.check_rank(c, "component index")
    return VectorialFunction(F.domain, canonical_field(F.p, 1), _component_table(F, c, np.int64))


def _narrow(p: int) -> np.dtype:
    """The narrowest dtype holding [0, p): certification's table dtype."""
    return np.min_scalar_type(p - 1)


def _component_table(F: VectorialFunction, c: int, dtype) -> np.ndarray:
    """The table of F_c, for a nonzero rank c, in dtype."""
    cod = F.codomain
    return cod.trace(1, cod.mul(c, np.arange(cod.size))).astype(dtype)[F.table]


# ---------------------------------------------------------------------------
# the radix-p transform
# ---------------------------------------------------------------------------

# Largest p whose passes take the dense product.  Its matrix holds p^4
# entries, only 1 in p of them nonzero, so a pass costs p^3 N multiply-adds
# against the p^2 N adds of the shifts.  With single-threaded BLAS on a
# 2-vCPU Xeon VM the product, once built, is the faster pass up to p = 43
# (1.6x at 37^3, 1.2x at 43^3) and the slower one from 53^3; building it
# costs more than it saves at p^2 points from p = 23, but under 40 ms up to
# p = 37.  Past 37 the gain is small and the two matrices pass 16 MB.
DENSE_PASS_MAX_P = 37


@lru_cache(maxsize=None)  # one entry per (p <= DENSE_PASS_MAX_P, dtype)
def _pass_matrices(p: int, dtype: np.dtype) -> np.ndarray:
    """B[u p + j', j p + t] = 1 iff j' = j - u t (mod p): the digit pass
    that takes the count at (exponent j, digit t) to (digit u, exponent
    j').  Shared between calls, so read-only."""
    u, j_out, t = np.indices((p, p, p))
    B = np.zeros((p * p, p * p), dtype=dtype)
    B[u * p + j_out, (j_out + u * t) % p * p + t] = 1
    B.setflags(write=False)
    return B


def _dense_pass(X: np.ndarray, Y: np.ndarray, p: int) -> None:
    """One digit pass from X to Y, both (b, p^2, c) views: the product with
    B of _pass_matrices."""
    np.matmul(_pass_matrices(p, X.dtype), X, out=Y)


# Largest p^{T+1} of the tail matrix K_T (_tail_matrix), which folds a
# block's last T passes and the reduction into one 2-D product.  A stacked
# pass over few columns (R = p^{dim-k-1}) is many tiny BLAS products; one
# 2-D product with the larger K_T does the same work faster, until K_T's
# p^{2T+1} (p - 1) entries outgrow the saving.  With single-threaded BLAS
# on a 2-vCPU Xeon VM (medians of 15 interleaved runs) a float32 transform
# took, from T = 1 to the largest T this bound gives:
#   3^12 15.3 -> 9.3 ms, 3^10 1.11 -> 0.72 ms, 3^8 0.128 -> 0.083 ms (T = 3),
#   5^8 19.5 -> 16.8 ms, 5^6 0.49 -> 0.38 ms (T = 2);
# T = 4 at p = 3 (243 entries) was slower than T = 3 at every size, and
# T = 2 at p = 7 (343) took 7^6 from 7.6 to 9.4 ms.  So T = 1 from p = 7.
TAIL_ENTRIES = 125


def _tail_length(p: int) -> int:
    """T, the passes a block's tail product folds: the largest T with
    p^{T+1} <= TAIL_ENTRIES, and at least 1."""
    T = 1
    while p ** (T + 2) <= TAIL_ENTRIES:
        T += 1
    return T


@lru_cache(maxsize=None)  # one entry per (p, T, dtype)
def _tail_matrix(p: int, T: int, dtype: np.dtype) -> np.ndarray:
    """K_T, of shape (p^{T+1}, p^T (p - 1)): the last T passes of a block,
    then the reduction to {1, ..., zeta^{p-2}}.  Row i is the image of the
    i-th unit vector of a block of counts (exponent j, then the T digits of
    x left) under T passes with B, each frequency's row then reduced by
    reduce_counts; so an entry is [j' = j - <u, t>] - [p - 1 = j -
    <u, t>], in {-1, 0, 1}.  Shared between calls, so read-only."""
    size = p ** (T + 1)
    src, dst = np.eye(size, dtype=dtype), np.empty((size, size), dtype=dtype)
    for k in range(T):
        shape = (size * p ** k, p * p, -1)
        _dense_pass(src.reshape(shape), dst.reshape(shape), p)
        src, dst = dst, src
    K = reduce_counts(src.reshape(size, p ** T, p)).reshape(size, -1)
    K.setflags(write=False)
    return K


def _shift_pass(X: np.ndarray, Y: np.ndarray, p: int) -> None:
    """The same pass as _dense_pass in p^2 adds: digit t reaches digit u
    shifted by u t on the exponent axis, read as one slice of the counts
    of t written twice."""
    b, _, c = X.shape
    V = X.reshape(b, p, p, c)  # block, exponent j, digit t, rest
    W = Y.reshape(b, p, p, c)  # block, digit u, exponent j', rest
    W[:] = V[:, None, :, 0]  # t = 0 shifts nothing
    twice = np.empty((b, 2 * p, c), dtype=X.dtype)
    for t in range(1, p):
        twice[:, :p] = twice[:, p:] = V[:, :, t]
        for u in range(p):
            r = u * t % p
            W[:, u] += twice[:, r : r + p]


# Bytes of the one scratch array of a transform, capped at the size of its
# counts.  With single-threaded BLAS on a 2-vCPU Xeon VM (2 MiB L2 per
# core) a float32 transform at 3^12 took 8.6 ms with 256 KiB, 10.5 ms with
# 512 KiB to 1 MiB and 12.5 ms with a second buffer of its size; 7^6, 5^8
# and 13^4 moved by under 10% between 128 KiB and 4 MiB.
SCRATCH_BYTES = 1 << 18
# A shift pass makes p^2 slice-adds whatever its width, so above
# DENSE_PASS_MAX_P the scratch holds at least p SHIFT_SLICE entries and
# each add covers at least SHIFT_SLICE of them.  A transform at 211^2 took
# 3.0 s with 2^12, 2.3 s with 2^13 and 1.7-1.9 s with 2^14, as it does
# with a second buffer of its size; 41^3 and 53^3 moved by under 10%.
SHIFT_SLICE = 1 << 14


def _digit_transform(C: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Turn float exponent counts C[j, x] (the weight at x is
    sum_j C[j, x] zeta^j, x's digits most significant first) into the
    (p^dim, p - 1) counts of G(u) = sum_x weight(x) zeta^{-sum_k u_k x_k}
    in the basis {1, ..., zeta^{p-2}}, rows u in natural order.

    Pass k views the counts as (p^k, p^2, R), R = p^{dim-k-1}: a block per
    frequency prefix made so far, the pairs (j, t) of the exponent and the
    top digit of x left, and the rest of x.  It maps (j, t) to (u, j'), so
    u joins the prefix, and it mixes nothing across blocks or across the R
    columns.  Passes are products with B of _pass_matrices for
    p <= DENSE_PASS_MAX_P and the shifts of _shift_pass above it.

    Everything happens in C's own memory and one scratch array S: of
    SCRATCH_BYTES for the products, of p SHIFT_SLICE entries for the
    shifts, and of at least p^2 entries and at most C's size.  While a
    prefix block (p^{dim-k+1} entries) is larger than S, pass k goes over C
    a column chunk at a time, through S and back.  Then the blocks, as many
    at a time as fit in S, run their remaining passes between their own
    place in C and S.  With products, a block's last T passes
    (_tail_length, at most the passes left in the block) and the reduction
    are one 2-D product of its rows of p^{T+1} counts with K_T of
    _tail_matrix: those passes have R < p^T, so stacked they would be many
    tiny BLAS calls.  The product reads S and writes the blocks' reduced
    rows to the front of C; after the last shifts, which land in S,
    reduce_counts writes them there instead.  Block b's p^{dim-k} rows of
    p - 1 counts end before block b + 1 begins, so they only overwrite
    blocks already consumed.  The result is a view of C.

    C holds non-negative counts, and the transform is exact while
    exact_float_dtype(C.sum()) is no wider than C's dtype: before the
    reduction every entry and partial sum is a count of at most C.sum().
    An entry of K_T is in {-1, 0, 1}, so a reduced output adds the counts
    that its +1 entries select, which make up one unreduced count, and
    subtracts those of its -1 entries, which make up another; in any
    summation order its partial sums lie in [-C.sum(), C.sum()]."""
    N = C.shape[1]
    dense = p <= DENSE_PASS_MAX_P
    step = _dense_pass if dense else _shift_pass
    flat = C.reshape(-1)
    size = max(SCRATCH_BYTES // C.itemsize, p * p) if dense else p * max(SHIFT_SLICE, p)
    S = np.empty(min(size, p * N), dtype=C.dtype)
    top = 0
    while p ** (dim - top + 1) > S.size:
        V = flat.reshape(p ** top, p * p, -1)
        width = S.size // (p * p)
        for b in range(V.shape[0]):
            for r in range(0, V.shape[2], width):
                X = V[b : b + 1, :, r : r + width]
                Y = S[: X.size].reshape(X.shape)
                step(X, Y, p)
                X[...] = Y
        top += 1
    M, passes = p ** (dim - top), dim - top  # points and passes per block
    T = min(_tail_length(p), passes) if dense else 0  # passes the tail product folds
    group = S.size // (p * M)  # blocks per step
    G = flat[: N * (p - 1)].reshape(N, p - 1)
    for b in range(0, p ** top, group):
        g = min(group, p ** top - b)
        src = flat[b * p * M : (b + g) * p * M]
        dst = S[: src.size]
        if (passes - T) % 2 == 0:  # so that the tail product reads S, or the last shift writes it
            dst[:] = src
            src, dst = dst, src
        for k in range(passes - T):
            step(src.reshape(g * p ** k, p * p, -1), dst.reshape(g * p ** k, p * p, -1), p)
            src, dst = dst, src
        rows = G[b * M : (b + g) * M]
        if dense:
            np.matmul(src.reshape(-1, p ** (T + 1)), _tail_matrix(p, T, C.dtype),
                      out=rows.reshape(-1, p ** T * (p - 1)))
        else:
            reduce_counts(src.reshape(-1, p), out=rows)
    return G


@dataclass
class WalshSpectrum:
    """Exact spectrum: row a holds the Z[zeta_p] coefficients of W(a)."""

    space: Space
    coeff_rows: np.ndarray

    @property
    def p(self) -> int:
        return self.space.p

    def __getitem__(self, a: int) -> CyclotomicInt:
        return CyclotomicInt(self.p, self.coeff_rows[a])

    def to_json(self) -> list:
        return [{"p": self.p, "coeffs": row} for row in self.coeff_rows.tolist()]


def _char_counts(space: Space, e: np.ndarray) -> np.ndarray:
    """T(u) = sum of zeta^{e[x] - sum_k u_k x_k} over the ranks x with e[x]
    in [0, p) (any other entry leaves x out), as float (p^n, p - 1) counts:
    row u holds T(u) in the basis {1, ..., zeta^{p-2}}, so T(a) in the
    pairing <a, x> is row dual[a].  The counts C[j, x] = [e[x] = j] keep
    every count within p^n, which sets the dtype."""
    N, p = space.size, space.p
    if N > walsh_cap():
        raise SizeGuard(f"p^n = {N} exceeds the transform cap")
    C = np.empty((p, N), dtype=exact_float_dtype(N))
    for j in range(p):  # at 3^12 with int8 e: 0.6 ms, one broadcast compare 1.2 ms
        np.equal(e, j, out=C[j])
    return _digit_transform(C, p, space.dim)


def walsh_full(f: VectorialFunction) -> WalshSpectrum:
    """Exact W_f by the fast transform."""
    _check_p_ary(f)
    G = _char_counts(f.domain, f.table)
    return WalshSpectrum(f.domain, f.domain.gather_dual(G).astype(np.int64))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class BentClassification:
    is_bent: bool
    weakly_regular: bool
    regular: bool
    epsilon: int | None
    dual: VectorialFunction | None


@lru_cache(maxsize=None)
def _candidate_map(p: int, n: int):
    """The 2p values +-u zeta^j a bent Walsh value can take, for the key
    lookup of _match_candidates: (weights w, candidate keys in ascending
    order, and the coefficient rows, signs and exponents j in that order,
    the exponents in the narrow table dtype)."""
    # u = p^{n/2} or p^{(n-1)/2} g as counts, its reduced row with a zero
    # zeta^{p-1} count; times zeta^j, count i moves to i + j
    u = CyclotomicInt.from_int(p, 1) if n % 2 == 0 else gauss_sum(p)
    u_counts = p ** (n // 2) * np.array(u.coeffs + (0,), dtype=np.int64)
    signs, js = np.tile([1, -1], p), np.repeat(np.arange(p, dtype=_narrow(p)), 2)
    rows = reduce_counts(signs[:, None] * u_counts[(np.arange(p) - js[:, None]) % p])
    # weights linear in the coefficient index collide on the odd-n Gauss-sum
    # rows; numpy.random would cost its import in every process
    rng = random.Random(p)
    w = np.array([rng.getrandbits(63) for _ in range(p - 1)], dtype=np.int64)
    keys = rows @ w
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise MatchFailure(f"candidate keys collide for p={p}, n={n}")
    return w, keys, rows[order], signs[order], js[order]


# Rows keyed and confirmed per step of _match_candidates, so its int64
# work arrays hold this many entries rather than p^n.  Matching a float32
# 3^12 spectrum took 6.0 ms in steps of 2^12 rows, 5.1 ms in steps of 2^13
# and 4.6-4.7 ms from 2^14 to 2^16, against 5.1 ms for whole columns.
MATCH_ROWS = 1 << 13


def _match_candidates(rows: np.ndarray, p: int, n: int):
    """Match rows of p - 1 ring coefficients, integers in any dtype that
    holds them exactly, against the 2p candidates: (matched, which), a bool
    per row and, where matched, the row's index into the candidate arrays
    of _candidate_map, in the narrowest unsigned dtype.  Rows are keyed and
    confirmed MATCH_ROWS at a time, a column at a time, so no copy of them
    and no whole-length int64 array is made."""
    w, keys, cand_rows, _, _ = _candidate_map(p, n)
    cand_cols = cand_rows.T.astype(rows.dtype)  # exact: |entries| <= 2 p^{n/2}
    N = rows.shape[0]
    matched = np.empty(N, dtype=bool)
    which = np.empty(N, dtype=np.min_scalar_type(keys.size - 1))
    key = np.empty(min(N, MATCH_ROWS), dtype=np.int64)
    col = np.empty_like(key)
    for start in range(0, N, MATCH_ROWS):
        block = rows[start : start + MATCH_ROWS]
        m = block.shape[0]
        k, c = key[:m], col[:m]
        k[:] = 0
        for j in range(p - 1):
            np.copyto(c, block[:, j], casting="unsafe")  # exact: integral values
            c *= w[j]
            k += c  # wraps mod 2^64, like the candidate keys
        cand = np.searchsorted(keys, k)
        np.minimum(cand, keys.size - 1, out=cand)
        ok = matched[start : start + m]
        np.equal(block[:, 0], cand_cols[0][cand], out=ok)
        for j in range(1, p - 1):
            ok &= block[:, j] == cand_cols[j][cand]
        which[start : start + m] = cand
    return matched, which


def _bent_dual(space: Space, table: np.ndarray) -> tuple[np.ndarray, int | None] | None:
    """Classify the p-ary function with this table (any integer dtype) by
    exact matching of every spectrum value against the 2p candidates: None
    if it is not bent, else its dual table in the narrow dtype of
    _candidate_map and its sign eps, None when it is not weakly regular."""
    p, n = space.p, space.dim
    matched, which = _match_candidates(_char_counts(space, table), p, n)
    if not matched.all():
        return None
    del matched
    _, _, _, cand_signs, cand_js = _candidate_map(p, n)
    taken = np.zeros(cand_signs.size, dtype=bool)
    taken[which] = True  # the candidates that occur
    signs = cand_signs[taken]
    eps = int(signs[0]) if (signs == signs[0]).all() else None
    # row dual[a] of the counts holds W_f(a)
    return cand_js[space.gather_dual(which)], eps


def classify_bent(f: VectorialFunction) -> BentClassification:
    """Decide bentness, extract the dual and the weak-regularity sign: f is
    bent iff every spectrum value matches a candidate (see the module
    docstring)."""
    _check_p_ary(f)
    bent = _bent_dual(f.domain, f.table)
    if bent is None:
        return BentClassification(False, False, False, None, None)
    dual, eps = bent
    return BentClassification(
        True, eps is not None, eps == 1, eps, VectorialFunction(f.domain, f.codomain, dual)
    )


def _scalar_orbits(cod: Field) -> dict[int, list[tuple[int, int]]]:
    """r -> [(c, mu), ...] for every orbit {lambda r : lambda in GF(p)^*} of
    nonzero ranks of cod, representatives r in increasing order: r is its
    least rank, and c = mu r runs over the orbit in increasing order, so
    (r, 1) comes first.  GF(p)^* is the subgroup of order p - 1, so the
    orbits are the log residue classes mod (q - 1)/(p - 1)."""
    q, p = cod.size, cod.p
    res = cod.log_residue(np.arange(1, q), (q - 1) // (p - 1))
    rows = (np.argsort(res, kind="stable") + 1).reshape(-1, p - 1)  # ascending per class
    rows = rows[np.argsort(rows[:, 0])]
    mus = cod.mul(rows, cod.inv(rows[:, :1]))
    return {int(row[0]): list(zip(row.tolist(), mu.tolist())) for row, mu in zip(rows, mus)}


@dataclass
class DualBentCertificate:
    """Witness that Fstar is a vectorial dual of F: sigma maps each nonzero
    component index c to the index whose Fstar-component equals (F_c)^*."""

    dual: VectorialFunction
    sigma: dict[int, int]
    epsilons: dict[int, int | None]


def _table_key(table: np.ndarray) -> int:
    """The Fstar index key of a contiguous table: a CRC-32 of its bytes.
    Equal tables get equal keys; a hit is confirmed by comparing tables."""
    return zlib.crc32(table)


def dual_bent_certificate(
    F: VectorialFunction, Fstar: VectorialFunction
) -> DualBentCertificate | None:
    """Check (F_c)^* = (Fstar)_{sigma(c)} for every nonzero c.

    Components are certified a GF(p)^* orbit at a time, representatives in
    increasing order.  The least c of an orbit, r, is classified; every
    other c = mu r takes its dual and sign from r (see the module
    docstring): (F_c)^*(a) = mu (F_r)^*(mu^{-1} a), eps_c = eps_r for even n
    and eta(mu) eps_r for odd n, and None stays None.  Only one orbit's
    duals are held at a time, all in the narrowest dtype that holds
    [0, p).  Each dual is looked up among the Fstar components by the
    _table_key of its table, and every hit is confirmed against the
    recomputed Fstar component, so colliding keys cost time but never give
    another sigma.

    Returns the certificate, or None when Fstar fails to certify F (which
    does not prove F is not dual-bent).  Raises NotBent if some component
    of F is not bent; bentness is the same across an orbit, so the first
    non-bent c is the least of its orbit.  When both occur, the one at the
    smaller c decides, as if c = 1, ..., q-1 were visited in turn: orbits
    whose representative lies past a failure are not visited.

    The final check that sigma is injective cannot fire when every eps_c is
    set.  A weakly regular f has f^{**}(x) = f(-x), so equal duals
    (F_{c1})^* = (F_{c2})^* force F_{c1} = F_{c2}; then F_{c1 - c2} = 0,
    which is not bent, and NotBent was raised first.  The check stays for F
    with components that are not weakly regular, where that argument does
    not hold.
    """
    if F.domain != Fstar.domain or F.codomain != Fstar.codomain:
        raise ValueError("F and Fstar must share domain and codomain")
    q, p, n = F.codomain.size, F.p, F.domain.dim
    narrow = _narrow(p)
    star_index: dict[int, list[int]] = {}
    for d in range(1, q):
        star_index.setdefault(_table_key(_component_table(Fstar, d, narrow)), []).append(d)
    eta = canonical_field(p, 1).quadratic_character
    sigma = dict.fromkeys(range(1, q))  # listed by c, filled an orbit at a time
    epsilons = dict(sigma)
    failure = q  # the least c whose dual matched no single Fstar component
    for r, members in _scalar_orbits(F.codomain).items():
        if r > failure:
            break
        rep = _bent_dual(F.domain, _component_table(F, r, narrow))
        if rep is None:  # every c < r is certified, as failure > r
            raise NotBent(f"component {r} is not bent")
        for c, mu in members:
            if c > failure:
                break
            dual, eps = rep
            if mu != 1:
                # a -> mu dual(mu^{-1} a); a narrow index array is cast in
                # buffered chunks here, not whole
                scaled = F.domain.gather_scaled(dual, pow(mu, -1, p))
                dual = (mu * np.arange(p) % p).astype(dual.dtype)[scaled]
                if n % 2 and eps is not None:
                    eps *= eta(mu)
            matches = [d for d in star_index.get(_table_key(dual), [])
                       if np.array_equal(_component_table(Fstar, d, narrow), dual)]
            if len(matches) != 1:
                failure = c
                break
            sigma[c], epsilons[c] = matches[0], eps
        del rep, dual  # the orbit is done
    if failure < q or len(set(sigma.values())) != q - 1:
        return None
    return DualBentCertificate(Fstar, sigma, epsilons)


# ---------------------------------------------------------------------------
# l-forms and the l-form converse check
# ---------------------------------------------------------------------------

def lform_exponents(f: VectorialFunction) -> set[int]:
    """All l in [1, p-1] with f(a x) = a^l f(x) for every scalar a != 0.
    The least primitive root g of GF(p) is tested alone: f(g x) = g^l f(x)
    for all x gives f(g^k x) = (g^k)^l f(x) for every k."""
    _check_p_ary(f)
    p, g = f.p, canonical_field(f.p, 1).primitive_element
    scaled = f.domain.gather_scaled(f.table, g)
    return {l for l in range(1, p) if np.array_equal(scaled, pow(g, l, p) * f.table % p)}


@dataclass
class LformConverseReport:
    applicable: bool
    reason: str
    exponents: set[int]
    valid_exponent: int | None
    passed: bool | None
    counterexample: bool


def lform_converse_check(f: VectorialFunction) -> LformConverseReport:
    """Empirical check of the l-form converse: every weakly regular
    vectorial dual-bent f with f(0) = 0 must be an l-form with
    gcd(l-1, p-1) = 1.  A certified instance with no such l would be a
    counterexample and is flagged as one."""
    if int(f.table[0]) != 0:
        raise PreconditionF0("lform_converse_check requires f(0) = 0")
    cl = classify_bent(f)
    if not cl.is_bent:
        return LformConverseReport(False, "not bent", set(), None, None, False)
    if not cl.weakly_regular:
        return LformConverseReport(False, "bent but not weakly regular", set(), None, None, False)
    cert = dual_bent_certificate(f, cl.dual)
    if cert is None:
        return LformConverseReport(
            False, "dual does not certify a vectorial dual", set(), None, None, False
        )
    exps = lform_exponents(f)
    valid = sorted(l for l in exps if math.gcd(l - 1, f.p - 1) == 1)
    if valid:
        return LformConverseReport(True, "certified", exps, valid[0], True, False)
    return LformConverseReport(True, "certified but no admissible l-form", exps, None, False, True)
