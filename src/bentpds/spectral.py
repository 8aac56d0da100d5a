"""Walsh spectra over Z[zeta_p], bentness classification, duals, and
vectorial dual-bent certificates.

The full transform W_f(a) = sum_x zeta^{f(x) - <a,x>} is computed by a
radix-p fast transform: n rounds of exact p-point DFTs over Z[zeta_p], one
per GF(p)-coordinate.  Ring arrays in the transform are coefficients in
the basis {1, zeta, ..., zeta^{p-2}} from the fill to the output, of shape
(p - 1, p^n), C[i, x] = the coefficient of zeta^i at x, coefficient-major
with x's digits most significant first.  A pass multiplies by zeta^{-u t}
(t the top digit of x left, u that of the frequency), a fixed
{-1, 0, 1} map from the (p - 1) p pairs (i, t) to the pairs (u, i'): the
coefficient at i goes to i - u t, or, where that is p - 1, by
zeta^{p-1} = -(1 + ... + zeta^{p-2}) to -1 times every i'.  For
p <= DENSE_PASS_MAX_P a pass is one stacked BLAS product of that square
matrix with the coefficients of every frequency prefix made so far; for
larger p it is p^2 slice-adds of shifted rows, padded with a zero
zeta^{p-1} row and reduced once per u.  u lands above i', so after n
passes the frequencies are in natural order with no transpose or digit
reversal.  The last T passes (T = 3 at p = 3, 2 at p = 5, else 1) are
one 2-D product with the {-1, 0, 1} matrix of T digits at once, built by
the same closed form as a pass's (_digit_matrix).  It runs in place: one
(p - 1, p^n) buffer and a fixed scratch array hold everything, and the
output is that buffer as (p^n, p - 1) rows (_digit_transform).  The
coefficients are floats: every one and every partial sum has magnitude at
most p^n, which is exact in float32 while p^n < 2^24 and in float64 while
p^n < 2^53 (limits.exact_float_dtype).
Every decision reads these float coefficients: classification here and
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
of coefficients at a time: each row gets one int64 key (a dot product with
fixed pseudo-random weights, wrapping mod 2^64), the key's residue mod M
looks up one candidate, M the least power of two at which the 2p
candidate keys differ, and a column-wise equality confirms it.  A row
equal to a candidate has that candidate's key, so it is found; any other
row fails the equality, so the match stays exact whatever the keys
collide with.

Certificates use one transform per orbit of H = <d, GF(p)^*> on the
components, where F o phi = d F for a scaling phi: x_i -> t_i x_i of the
domain factors that one exact comparison over F's table confirms
(_symmetry; d = 1 and H = GF(p)^* when none holds).  Two steps reach an
orbit from one member.  F_{d c} = F_c o phi, and as phi is self-adjoint for
the inner product, (F_{d c})^* = (F_c)^* o phi^{-1}, with F_c's sign.  And
F_{lambda c} = lambda F_c for lambda in GF(p)^*, where W_{lambda f}(a) =
sigma_lambda(W_f(lambda^{-1} a)) for the automorphism sigma_lambda:
zeta -> zeta^lambda.  It fixes p^{n/2} and sends g to eta(lambda) g (eta
the quadratic character of GF(p)), so lambda f is bent iff f is,
(lambda f)^*(a) = lambda f^*(lambda^{-1} a), and its sign is eps_f for
even n and eta(lambda) eps_f for odd n.  At mm_power and mm_qpoly, phi
scales the first factor by the embedded generator of GF(p^s), d has order
q - 1, and one transform serves every component.

Every function table is stored in rank_dtype(q) = np.min_scalar_type(q - 1)
of its codomain's size q, uint8 up to q = 256: VectorialFunction casts its
input once, and no consumer casts a table again.  A Python int does not
widen such an array (NEP 50), so c * table % p wraps once c (q - 1) > 255;
arithmetic on a table is a lookup of the map's values through it, made
by one chunked helper, _apply, which never casts a whole table to intp.
"""
from __future__ import annotations

import math
import random
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
from .limits import LOOKUP_POINTS, SCRATCH_BYTES, exact_float_dtype, walsh_cap
from .space import Space


# ---------------------------------------------------------------------------
# function tables
# ---------------------------------------------------------------------------

def rank_dtype(q: int) -> np.dtype:
    """The dtype of every table of ranks below q: np.min_scalar_type(q - 1)."""
    return np.min_scalar_type(q - 1)


class VectorialFunction:
    """F: V_n -> GF(p^s), stored as a table of codomain ranks in
    rank_dtype(p^s), whatever integer dtype it was given in.  A p-ary
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
        self.table = arr.astype(rank_dtype(codomain.size), copy=False)

    @property
    def p(self) -> int:
        return self.domain.p

    @property
    def s(self) -> int:
        return self.codomain.m

    def __call__(self, x: int) -> int:
        return int(self.table[self.domain.check_ranks(x)])

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
    if F.codomain.check_rank(c, "component index") == 0:
        raise ZeroComponent("component index must be nonzero")
    return VectorialFunction(F.domain, canonical_field(F.p, 1), _component_table(F, c))


def _component_table(F: VectorialFunction, c: int) -> np.ndarray:
    """The table of F_c, for a nonzero rank c."""
    cod = F.codomain
    return _apply(cod.trace(1, cod.mul(c, np.arange(cod.size))).astype(rank_dtype(F.p)), F.table)


def _apply(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """values[table] in values' dtype, for a 1-D table of valid indices into
    values' first axis, LOOKUP_POINTS points at a time: np.take, twice as
    fast as [] through a narrow table, casts the index to intp.  Mode
    "clip" never fires on valid indices; "raise" would buffer the output."""
    out = np.empty(table.shape + values.shape[1:], dtype=values.dtype)
    for start in range(0, table.size, LOOKUP_POINTS):
        rows = slice(start, start + LOOKUP_POINTS)
        np.take(values, table[rows], axis=0, out=out[rows], mode="clip")
    return out


# ---------------------------------------------------------------------------
# the radix-p transform
# ---------------------------------------------------------------------------

# Largest p whose passes take the dense product.  Its matrix holds
# (p - 1)^2 p^2 entries, about 2 in p of them nonzero, so a pass costs
# about p^3 N multiply-adds against the p^2 N adds of the shifts.  With
# single-threaded BLAS on a 2-vCPU Xeon VM a float32 transform took, with
# products and with shifts (matrices built, minima of 5 runs), 5 and 8 ms
# at 13^4, 25 and 34 ms at 11^5, 38 and 31 ms at 17^4, 93 and 63 ms at
# 19^4, 80 and 28 ms at 31^3 and 252 and 82 ms at 37^3.
DENSE_PASS_MAX_P = 13


@lru_cache(maxsize=None)  # one entry per (p, T, dtype)
def _digit_matrix(p: int, T: int, dtype: np.dtype) -> np.ndarray:
    """B_T[u (p - 1) + i', i p^T + t] = coefficient i' of zeta^{i - <u, t>}
    in the basis {1, ..., zeta^{p-2}}, for T-digit vectors u and t, most
    significant digit first: T digit passes at once, taking the coefficient
    at (i, digits t) to (digits u, coefficient i').  Within the rows of one
    u, a column holds a single 1, or -1 in each row where i - <u, t> = p - 1
    mod p.  C-contiguous (with a Fortran-ordered B_1 the stacked passes made
    a 3^12 transform about 10% slower), and read-only, as calls share it."""
    digits = np.indices((p,) * T).reshape(T, -1)  # column t: the digits of t
    i = np.arange(p - 1)[:, None]
    basis = reduce_counts(np.eye(p, dtype=dtype))  # row k: zeta^k
    B = basis[(i - (digits.T @ digits)[:, None, :]) % p]  # (u, i, t, i')
    B = np.ascontiguousarray(B.transpose(0, 3, 1, 2).reshape((p - 1) * p ** T, -1))
    B.setflags(write=False)
    return B


def _dense_pass(X: np.ndarray, Y: np.ndarray, p: int) -> None:
    """One digit pass from X to Y, both (b, (p - 1) p, c) views: the product
    with B_1 of _digit_matrix."""
    np.matmul(_digit_matrix(p, 1, X.dtype), X, out=Y)


# Largest row (p - 1) p^T of the tail product, which folds a block's last
# T passes into one 2-D product with B_T of _digit_matrix.  A stacked pass
# over few columns (R = p^{dim-k-1}) is many tiny BLAS products; one 2-D
# product with the larger B_T does the same work faster, until its
# (p - 1)^2 p^{2T} entries outgrow the saving.  With single-threaded BLAS
# on a 2-vCPU Xeon VM (minima of 7 runs, best of 3 rounds) a float32
# transform took, at T = 1, 2, 3 and 4:
#   3^12 9.0, 6.2, 6.1, 7.3 ms; 3^8 0.095, 0.071, 0.067, 0.093 ms;
#   5^8 12.7, 11.5, 22.2 ms and 5^6 0.37, 0.33, 0.73 ms (T <= 3);
#   7^6 6.8, 7.7 ms and 7^4 0.12, 0.16 ms (T <= 2).
# So T = 3 at p = 3 (rows of 54), T = 2 at p = 5 (100), T = 1 from p = 7.
TAIL_ENTRIES = 100


def _tail_length(p: int) -> int:
    """T, the passes a block's tail product folds: the largest T with
    (p - 1) p^T <= TAIL_ENTRIES, and at least 1."""
    T = 1
    while (p - 1) * p ** (T + 1) <= TAIL_ENTRIES:
        T += 1
    return T


def _shift_pass(X: np.ndarray, Y: np.ndarray, p: int) -> None:
    """The same pass as _dense_pass in p^2 adds.  The coefficients at digit
    t, padded with a zero row for zeta^{p-1}, reach digit u shifted by u t,
    read as one slice of the padded rows written twice; then each u's
    zeta^{p-1} row is subtracted from its others, which reduces it.  The
    adds run on copies with the block axis inside the row axes, so each
    reads and writes one contiguous slab however few columns a block has."""
    b, _, c = X.shape
    V = X.reshape(b, p - 1, p, c)  # block, coefficient i, digit t, rest
    acc = np.zeros((p, p, b, c), dtype=X.dtype)  # digit u, exponent j', block, rest
    twice = np.zeros((2 * p, b, c), dtype=X.dtype)  # rows p - 1 and 2p - 1 stay 0
    for t in range(p):
        twice[: p - 1] = twice[p : 2 * p - 1] = V[:, :, t].transpose(1, 0, 2)
        for u in range(p):
            r = u * t % p
            acc[u] += twice[r : r + p]
    np.subtract(acc[:, : p - 1], acc[:, p - 1 :], out=Y.reshape(b, p, p - 1, c).transpose(1, 2, 0, 3))


# A shift pass makes p^2 slice-adds whatever its width, so above
# DENSE_PASS_MAX_P the scratch holds at least p SHIFT_SLICE entries and
# each add covers at least SHIFT_SLICE of them.  A float32 transform at
# 211^2 took 2.2 s with 2^12, 1.6 s with 2^13, 1.3 s with 2^14 and 1.6 s
# with 2^15, and 53^3 0.64, 0.48, 0.45 and 0.44 s (best of two runs).
SHIFT_SLICE = 1 << 14


def _digit_transform(C: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Turn float coefficients C[i, x] (the weight at x is
    sum_i C[i, x] zeta^i, i < p - 1, x's digits most significant first)
    into the (p^dim, p - 1) coefficients of G(u) = sum_x weight(x)
    zeta^{-sum_k u_k x_k}, rows u in natural order.

    Pass k views the coefficients as (p^k, (p - 1) p, R), R = p^{dim-k-1}:
    a block per frequency prefix made so far, the pairs (i, t) of the
    coefficient and the top digit of x left, and the rest of x.  It maps
    (i, t) to (u, i'), so u joins the prefix, and it mixes nothing across
    blocks or across the R columns.  Passes are products with B_1 of
    _digit_matrix for p <= DENSE_PASS_MAX_P and the shifts of _shift_pass
    above it.

    Everything happens in C's own memory and one scratch array S: of
    SCRATCH_BYTES for the products, of p SHIFT_SLICE entries for the
    shifts, and of at least (p - 1) p entries and at most C's size.  While
    a prefix block ((p - 1) p^{dim-k} entries) is larger than S, pass k goes
    over C a column chunk at a time, through S and back.  Then the blocks,
    as many at a time as fit in S, run their remaining passes between their
    own place in C and S, the last step from S back to that place.  With
    products, the last step is a block's last T passes (_tail_length, at
    most the passes left in the block) as one 2-D product of its rows of
    (p - 1) p^T coefficients with the transpose of B_T of _digit_matrix:
    those passes have R < p^T, so stacked they would be many tiny BLAS
    calls.  The result is C's memory as (p^dim, p - 1) rows.

    Each entry of C is [e = i] - [e = p - 1] for a value zeta^e at x, or 0
    where x has none, and the transform is exact while exact_float_dtype(m),
    m the points with a value, is no wider than C's dtype.  After k passes
    an entry is n_i - n_{p-1}, n_j the number of its p^k points whose term
    is zeta^j.  An output entry of a pass, or of B_T, takes from each slot
    t (one digit, or T digits for B_T) at most two input entries, one with
    each sign: n_a - n_{p-1} and -(n_b - n_{p-1}), a != b, both != p - 1.
    Within a slot, the positive parts n_a and n_{p-1} count disjoint points,
    and so do the negative parts n_{p-1} and n_b; so in any summation order
    every partial sum lies in [-m, m].  The shift pass sums one padded
    entry per slot, then subtracts two such sums, whose difference is the
    output entry."""
    N, rows = C.shape[1], (p - 1) * p
    dense = p <= DENSE_PASS_MAX_P
    step = _dense_pass if dense else _shift_pass
    flat = C.reshape(-1)
    size = max(SCRATCH_BYTES // C.itemsize, rows) if dense else p * max(SHIFT_SLICE, p)
    S = np.empty(min(size, flat.size), dtype=C.dtype)
    top = 0
    while (p - 1) * p ** (dim - top) > S.size:
        V = flat.reshape(p ** top, rows, -1)
        width = S.size // rows
        for b in range(V.shape[0]):
            for r in range(0, V.shape[2], width):
                X = V[b : b + 1, :, r : r + width]
                Y = S[: X.size].reshape(X.shape)
                step(X, Y, p)
                X[...] = Y
        top += 1
    M, passes = p ** (dim - top), dim - top  # points and passes per block
    T = min(_tail_length(p), passes) if dense else 1  # passes of the last step
    group = S.size // ((p - 1) * M)  # blocks per step
    for b in range(0, p ** top, group):
        g = min(group, p ** top - b)
        block = flat[b * (p - 1) * M : (b + g) * (p - 1) * M]
        src, dst = block, S[: block.size]
        if (passes - T) % 2 == 0:  # so that the last step reads S and writes the block
            dst[:] = src
            src, dst = dst, src
        for k in range(passes - T):
            step(src.reshape(g * p ** k, rows, -1), dst.reshape(g * p ** k, rows, -1), p)
            src, dst = dst, src
        if dense:
            side = (p - 1) * p ** T
            np.matmul(src.reshape(-1, side), _digit_matrix(p, T, C.dtype).T, out=block.reshape(-1, side))
        else:
            step(src.reshape(g * M // p, rows, -1), block.reshape(g * M // p, rows, -1), p)
    return flat.reshape(N, p - 1)


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
    in [0, p) (any other entry leaves x out), as float (p^n, p - 1)
    coefficients: row u holds T(u) in the basis {1, ..., zeta^{p-2}}, so
    T(a) in the pairing <a, x> is row dual[a].  The fill C[i, x] =
    [e[x] = i] - [e[x] = p - 1] is the one conversion from values to
    coefficients; the points, at most p^n, set the dtype."""
    N, p = space.size, space.p
    if N > walsh_cap():
        raise SizeGuard(f"p^n = {N} exceeds the transform cap")
    C = np.empty((p - 1, N), dtype=exact_float_dtype(N))
    last = (e == p - 1).view(np.int8)
    for i in range(p - 1):  # at 3^12 with int8 e: 0.4 ms, with float subtracts 0.6 ms
        np.subtract((e == i).view(np.int8), last, out=C[i])
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
    lookup of _match_candidates: (weights w, lookup table lut, and the
    candidates' coefficient rows, signs and exponents j, the exponents in
    rank_dtype(p)), shared, so read-only.  lut.size is the least power of
    two M at which the 2p keys differ mod M, and lut[key mod M] is the index
    of the candidate with that key."""
    # u = p^{n/2} or p^{(n-1)/2} g as counts, its reduced row with a zero
    # zeta^{p-1} count; times zeta^j, count i moves to i + j
    u = CyclotomicInt.from_int(p, 1) if n % 2 == 0 else gauss_sum(p)
    u_counts = p ** (n // 2) * np.array(u.coeffs + (0,), dtype=np.int64)
    signs, js = np.tile([1, -1], p), np.repeat(np.arange(p, dtype=rank_dtype(p)), 2)
    rows = reduce_counts(signs[:, None] * u_counts[(np.arange(p) - js[:, None]) % p])
    # weights linear in the coefficient index collide on the odd-n Gauss-sum
    # rows; numpy.random would cost its import in every process
    rng = random.Random(p)
    w = np.array([rng.getrandbits(63) for _ in range(p - 1)], dtype=np.int64)
    keys = rows @ w
    if len(set(keys.tolist())) < keys.size:
        raise MatchFailure(f"candidate keys collide for p={p}, n={n}")
    M = 2
    while len(set((keys & (M - 1)).tolist())) < keys.size:
        M *= 2
    lut = np.zeros(M, dtype=np.intp)  # the index dtype of np.take
    lut[keys & (M - 1)] = np.arange(keys.size)
    tables = w, lut, rows, signs, js
    for table in tables:
        table.setflags(write=False)
    return tables


def _match_candidates(rows: np.ndarray, p: int, n: int):
    """Match rows of p - 1 ring coefficients, integers in any dtype that
    holds them exactly, against the 2p candidates: (matched, which), a bool
    per row and, where matched, the row's index into the candidate arrays
    of _candidate_map, in the narrowest unsigned dtype.  A row's key mod
    lut.size proposes one candidate through lut, and the row's columns
    equal to that candidate's confirm it.  Rows are keyed and confirmed
    LOOKUP_POINTS at a time, a column at a time, so no copy of them and no
    whole-length int64 array is made."""
    w, lut, cand_rows, _, _ = _candidate_map(p, n)
    cand_cols = cand_rows.T.astype(rows.dtype)  # exact: |entries| <= 2 p^{n/2}
    N = rows.shape[0]
    matched = np.empty(N, dtype=bool)
    which = np.empty(N, dtype=np.min_scalar_type(cand_rows.shape[0] - 1))
    key = np.empty(min(N, LOOKUP_POINTS), dtype=np.int64)
    col, got = np.empty_like(key), np.empty(key.size, dtype=rows.dtype)
    for start in range(0, N, LOOKUP_POINTS):
        block = rows[start : start + LOOKUP_POINTS]
        m = block.shape[0]
        k, c, g = key[:m], col[:m], got[:m]
        k[:] = 0
        for j in range(p - 1):
            np.copyto(c, block[:, j], casting="unsafe")  # exact: integral values
            c *= w[j]
            k += c  # wraps mod 2^64, like the candidate keys
        k &= lut.size - 1
        cand = np.take(lut, k, out=c)
        ok = matched[start : start + m]
        np.equal(block[:, 0], np.take(cand_cols[0], cand, out=g), out=ok)
        for j in range(1, p - 1):
            ok &= block[:, j] == np.take(cand_cols[j], cand, out=g)
        which[start : start + m] = cand
    return matched, which


def _bent_dual(space: Space, table: np.ndarray) -> tuple[np.ndarray, int | None] | None:
    """Classify the p-ary function with this table by exact matching of
    every spectrum value against the 2p candidates: None if it is not bent,
    else its dual table and its sign eps, None when it is not weakly
    regular."""
    p, n = space.p, space.dim
    matched, which = _match_candidates(_char_counts(space, table), p, n)
    if not matched.all():
        return None
    del matched
    _, _, _, cand_signs, cand_js = _candidate_map(p, n)
    signs = cand_signs[np.bincount(which, minlength=cand_signs.size) > 0]  # those that occur
    eps = int(signs[0]) if (signs == signs[0]).all() else None
    # row dual[a] of the coefficients holds W_f(a)
    return _apply(cand_js, space.gather_dual(which)), eps


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


def _symmetry(F: VectorialFunction) -> tuple[list[int], int, int]:
    """(ts, d, index): the scaling phi: x_i -> t_i x_i of the domain with
    F o phi = d F whose H = <d, GF(p)^*> has the least index
    gcd((q - 1)/(p - 1), log d) in GF(q)^*.  Each t_i is 1 or iota_i(g),
    g the generator of GF(p^s) and iota_i its embedding into factor i by
    Field.subfield(s), on each factor whose degree s divides alone, then
    on all of them together; the search stops at index 1.  d is read at
    one x0 with F(x0) != 0, and a candidate holds only if one exact
    comparison over the whole table confirms it.  With no such phi, or
    when GF(p)^* is all of GF(q)^* (s = 1, where nothing is searched),
    it is the identity: every t_i = 1, d = 1, index (q - 1)/(p - 1)."""
    cod, dom = F.codomain, F.domain
    q, s, M = cod.size, cod.m, (cod.size - 1) // (cod.p - 1)
    best = [1] * len(dom.factors), 1, M
    if M == 1:
        return best
    x0 = int(np.argmax(F.table != 0))
    if F.table[x0] == 0:  # F = 0
        return best
    gens = {}  # factor -> iota(g)
    for i, f in enumerate(dom.factors):
        if f.m % s == 0:
            sub, embed = f.subfield(s)
            gens[i] = int(embed[sub.primitive_element])
    factor_sets = [[i] for i in gens] + ([list(gens)] if len(gens) > 1 else [])
    for factors in factor_sets:
        ts = [gens[i] if i in factors else 1 for i in range(len(dom.factors))]
        moved = dom.gather_mul(F.table, ts)  # F(phi x) at every x
        d = cod.mul(int(moved[x0]), cod.inv(int(F.table[x0])))
        if d == 0:
            continue
        index = math.gcd(M, cod.log_residue(d, q - 1))
        if index < best[2] and np.array_equal(
                _apply(cod.mul(d, np.arange(q)).astype(F.table.dtype), F.table), moved):
            best = ts, d, index
            if index == 1:
                break
    return best


def _steps(space: Space, ts: list[int], p: int) -> tuple[list[int], list[int]]:
    """The maps of _certificate's steps c -> d c and c -> lam c: t_i^{-1}
    on each factor, and lam^{-1} mod p at each lam in GF(p)^* (0 at 0)."""
    inverse = [0] + [pow(lam, -1, p) for lam in range(1, p)]
    return [f.inv(t) for f, t in zip(space.factors, ts)], inverse


@dataclass
class DualBentCertificate:
    """Witness that Fstar is a vectorial dual of F: sigma maps each nonzero
    component index c to the index whose Fstar-component equals (F_c)^*."""

    dual: VectorialFunction
    sigma: dict[int, int]
    epsilons: dict[int, int | None]


def dual_bent_certificate(
    F: VectorialFunction, Fstar: VectorialFunction
) -> DualBentCertificate | None:
    """Check (F_c)^* = (Fstar)_{sigma(c)} for every nonzero c.

    Components are certified an orbit of H = <d, GF(p)^*> at a time (see
    the module docstring).  Of c = 1, ..., q - 1, each c that no walk has
    reached is the least of its orbit, r, and is classified.  The walk
    from r takes the module docstring's two steps, by the maps of _steps:
    c -> lam c for each lam in GF(p)^* (Space.gather_scaled), and c -> d c
    (Space.gather_mul) until d c was reached before, that is until d^k is
    in GF(p)^*.  So every lam d^k r is reached, and no discrete log is
    taken.  One orbit's duals are held at a time.

    Each dual g is read off Fstar's value table: g = Fstar_e exactly when
    g = h o Fstar and h(y) = Tr(e y) on Fstar's image.  h is read off g at
    one x per y of the image, found once by scattering ranks x into a
    q-entry array (no sort of the table), g = h o Fstar is checked by one
    gather over the whole table, and the rows Tr(e y) on the image index
    every e, two e with one row having equal Fstar components; lam g
    factors through Fstar as g does, with the row lam h.  That alone would
    accept a step that yields the dual of another component (phi^{+1} in
    place of phi^{-1} does), so each step map is checked once against its
    forward map, apart from how it was found: each multiplier times t_i,
    or lam mod p, is 1.  With F o phi = d F checked on the whole table,
    these make g = (F_c)^*; a c reached through a failed step fails.

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
    return _certificate(F, Fstar, None)


def _certificate(
    F: VectorialFunction, Fstar: VectorialFunction, first
) -> DualBentCertificate | None:
    """dual_bent_certificate on F and Fstar of one domain and codomain;
    first is the (dual, eps) of _bent_dual for F_1 when the caller has
    classified it, else None."""
    cod, dom, p, n, q = F.codomain, F.domain, F.p, F.domain.dim, F.codomain.size
    ts, d, _ = _symmetry(F)
    back, inverse = _steps(dom, ts, p)
    back_ok = all(f.mul(b, t) == 1 for f, b, t in zip(dom.factors, back, ts))
    # one x with Fstar(x) = y for each y of the image, scattered a chunk at a
    # time; any x will do, as each g = h o Fstar is checked over the table
    at, N = np.full(q, -1, dtype=np.intp), Fstar.table.size
    for start in range(0, N, LOOKUP_POINTS):
        stop = min(start + LOOKUP_POINTS, N)
        at[Fstar.table[start:stop]] = np.arange(start, stop)
    image = np.flatnonzero(at >= 0)
    at = at[image]
    star_index: dict[bytes, list[int]] = {}  # Tr(e y) on the image -> [e, ...]
    for e in range(1, q):
        row = cod.trace(1, cod.mul(e, image)).astype(rank_dtype(p))
        star_index.setdefault(row.tobytes(), []).append(e)
    h = np.zeros(q, dtype=rank_dtype(p))  # a dual's value at each y of the image
    eta = canonical_field(p, 1).quadratic_character
    sigma = dict.fromkeys(range(1, q))  # listed by c, filled an orbit at a time
    epsilons, seen = dict(sigma), np.zeros(q, dtype=bool)
    failure = q  # the least c that failed: a step check, or no single match
    for r in range(1, q):
        if seen[r]:
            continue
        if r > failure:
            break
        rep = first if r == 1 and first is not None else _bent_dual(dom, _component_table(F, r))
        if rep is None:  # every c < r is certified, as failure > r
            raise NotBent(f"component {r} is not bent")
        (dual, eps), c = rep, r  # dual: that of F_c, None past a failed step check
        while not seen[c]:
            for lam in range(1, p):
                lc, matches = cod.mul(lam, c), []
                seen[lc] = True
                if lc < failure and dual is not None and inverse[lam] * lam % p == 1:
                    g = dual if lam == 1 else dom.gather_scaled(dual, inverse[lam])
                    h[image] = g[at]  # then g = h o Fstar, if at all, checked whole
                    if np.array_equal(_apply(h, Fstar.table), g):  # and lam g = lam h o Fstar
                        key = _apply((lam * np.arange(p) % p).astype(h.dtype), h[image])
                        matches = star_index.get(key.tobytes(), [])
                if len(matches) == 1:
                    sigma[lc] = matches[0]
                    epsilons[lc] = eps * eta(lam) if n % 2 and eps is not None else eps
                elif lc < failure:
                    failure = lc
            c = cod.mul(d, c)  # no gather once c is reached: the orbit is done
            ok = dual is not None and back_ok and not seen[c]
            dual = dom.gather_mul(dual, back) if ok else None
        rep = dual = g = None  # free the orbit's duals
    if failure < q or len(set(sigma.values())) != q - 1:
        return None
    return DualBentCertificate(Fstar, sigma, epsilons)


# ---------------------------------------------------------------------------
# l-forms and the l-form converse check
# ---------------------------------------------------------------------------

def lform_exponents(f: VectorialFunction) -> set[int]:
    """All l in [1, p-1] with f(a x) = a^l f(x) for every scalar a != 0.
    The least primitive root g of GF(p) is tested alone: f(g x) = g^l f(x)
    for all x gives f(g^k x) = (g^k)^l f(x) for every k.  d = g^l is read
    at one x0 with f(x0) != 0 (as in _symmetry) and confirmed over the
    whole table once; every l holds when f = 0."""
    _check_p_ary(f)
    p, g = f.p, canonical_field(f.p, 1).primitive_element
    x0 = int(np.argmax(f.table != 0))
    if f.table[x0] == 0:  # f = 0
        return set(range(1, p))
    scaled = f.domain.gather_scaled(f.table, g)
    d = int(scaled[x0]) * pow(int(f.table[x0]), -1, p) % p
    times_d = (d * np.arange(p) % p).astype(f.table.dtype)
    confirmed = np.array_equal(scaled, _apply(times_d, f.table))
    return {l for l in range(1, p) if confirmed and pow(g, l, p) == d}


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
    _check_p_ary(f)
    bent = _bent_dual(f.domain, f.table)  # f = f_1, so the certificate reuses it
    if bent is None:
        return LformConverseReport(False, "not bent", set(), None, None, False)
    dual, eps = bent
    if eps is None:
        return LformConverseReport(False, "bent but not weakly regular", set(), None, None, False)
    cert = _certificate(f, VectorialFunction(f.domain, f.codomain, dual), bent)
    if cert is None:
        return LformConverseReport(
            False, "dual does not certify a vectorial dual", set(), None, None, False
        )
    exps = lform_exponents(f)
    valid = sorted(l for l in exps if math.gcd(l - 1, f.p - 1) == 1)
    if valid:
        return LformConverseReport(True, "certified", exps, valid[0], True, False)
    return LformConverseReport(True, "certified but no admissible l-form", exps, None, False, True)
