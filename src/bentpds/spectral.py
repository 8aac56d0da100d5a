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
digit reversal.  The last product also reduces to the basis
{1, zeta, ..., zeta^{p-2}} (the CyclotomicInt.from_exponent_counts rule),
so the transform ends in (p^n, p - 1) reduced counts.  The counts are
floats: every count and partial sum has magnitude at most p^n, the signed
ones of the reduction included, which is exact in float32 while
p^n < 2^24 and in float64 while p^n < 2^53 (limits.exact_float_dtype).
Every decision reads these reduced float counts: classification here and
the character verifier of pds.  Only walsh_full gathers them into the
order of a and casts them to the int64 rows of WalshSpectrum.  The
transform also refuses spaces where (p-1)^2 p^{2n} reaches 2^63, the bound
on the norm products a * conj(a) of spectrum rows, so int64 norms formed
from any WalshSpectrum are exact.  The naive quadratic sum is kept
alongside as a cross-check oracle.

Bentness and regularity are decided by exact candidate matching alone.  By
Kumar, Scholtz and Welch (1985), every Walsh value of a p-ary bent
function, weakly regular or not, is one of the 2p ring elements
+-u zeta^j, where u = p^{n/2} for even n and u = p^{(n-1)/2} g for odd n
(g the quadratic Gauss sum, an exact square root of p^* in the ring).
Each candidate has |u zeta^j|^2 = p^n, so f is bent iff every value
matches one, and no norm is formed.  There are no tolerances anywhere.
For odd n the recorded sign is relative to that Gauss-sum normalisation.
Matching is key-then-verify, one column of counts at a time: each row gets
one int64 key (a dot product with fixed pseudo-random weights, wrapping
mod 2^64), a binary search among the 2p distinct candidate keys proposes
one candidate, and a column-wise equality confirms it.  A row equal to a
candidate has that candidate's key, so it is found; any other row fails
the equality, so the match stays exact whatever the keys collide with.

Certificates use one transform per GF(p)^* orbit of components.  For
lambda in GF(p)^*, F_{lambda c} = lambda F_c, and
W_{lambda f}(a) = sigma_lambda(W_f(lambda^{-1} a)) with sigma_lambda the
automorphism zeta -> zeta^lambda.  It fixes p^{n/2} and sends g to
eta(lambda) g (eta the quadratic character of GF(p)), so lambda f is bent
iff f is, (lambda f)^*(a) = lambda f^*(lambda^{-1} a), and its sign is
eps_f for even n and eta(lambda) eps_f for odd n.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CyclotomicInt, gauss_sum
from .errors import (
    MatchFailure,
    NotBent,
    PreconditionF0,
    SizeGuard,
    ZeroComponent,
)
from .field import Field, canonical_field
from .limits import exact_float_dtype, walsh_cap
from .space import Space, prime_space


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
        # numpy turns bool, float and str entries into integers under an
        # integer dtype, and a list mixing bools with ints into an int
        # array, so a list is checked by the types of its entries; integers
        # beyond int64 give a float, object or uint64 array
        exact = isinstance(table, np.ndarray) or all(
            issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, table)))
        if arr.dtype.kind not in "iu" or not exact:
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
            canonical_field(int(cod["p"]), int(cod["s"])),
            d["table"],
        )


def _check_p_ary(f: VectorialFunction) -> None:
    """Walsh spectra, ANF and l-forms are defined for values in GF(p)."""
    if f.s != 1:
        raise ValueError(f"a p-ary (s = 1) function is needed, got s = {f.s}")


def component(F: VectorialFunction, c: int) -> VectorialFunction:
    """F_c(x) = Tr_1^s(c F(x)) for nonzero c in the codomain."""
    if c == 0:
        raise ZeroComponent("component index must be nonzero")
    cod = F.codomain
    cod.check_rank(c, "component index")
    comp_map = cod.trace(1, cod.mul(c, np.arange(cod.size)))
    return VectorialFunction(F.domain, canonical_field(F.p, 1), comp_map[F.table])


def flatten_domain(f: VectorialFunction) -> VectorialFunction:
    """Reinterpret the domain as GF(p)^n; the digit encoding makes the table
    carry over unchanged."""
    return VectorialFunction(prime_space(f.p, f.domain.dim), f.codomain, f.table)


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
def _pass_matrices(p: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """(B, L).  B[u p + j', j p + t] = 1 iff j' = j - u t (mod p): the digit
    pass that takes the count at (exponent j, digit t) to (digit u,
    exponent j').  L is the last pass reduced to the basis
    {1, ..., zeta^{p-2}} and transposed: column u (p - 1) + j' of L is row
    u p + j' of B minus row u p + p - 1.  Shared between calls, so
    read-only."""
    u, j_out, t = np.indices((p, p, p))
    B = np.zeros((p * p, p * p), dtype=dtype)
    B[u * p + j_out, (j_out + u * t) % p * p + t] = 1
    rows = B.reshape(p, p, p * p)
    L = np.ascontiguousarray((rows[:, :-1] - rows[:, -1:]).reshape(-1, p * p).T)
    B.setflags(write=False)
    L.setflags(write=False)
    return B, L


def _dense_pass(C: np.ndarray, out: np.ndarray, p: int, b: int) -> None:
    np.matmul(_pass_matrices(p, C.dtype)[0], C.reshape(b, p * p, -1),
              out=out.reshape(b, p * p, -1))


def _shift_pass(C: np.ndarray, out: np.ndarray, p: int, b: int) -> None:
    """The same pass as _dense_pass in p^2 adds of N counts: digit t
    reaches digit u shifted by u t on the exponent axis, read as one slice
    of the counts of t written twice."""
    V = C.reshape(b, p, p, -1)  # block, exponent j, digit t, rest
    W = out.reshape(b, p, p, -1)  # block, digit u, exponent j', rest
    W[:] = V[:, None, :, 0]  # t = 0 shifts nothing
    twice = np.empty((b, 2 * p, V.shape[3]), dtype=C.dtype)
    for t in range(1, p):
        twice[:, :p] = twice[:, p:] = V[:, :, t]
        for u in range(p):
            r = u * t % p
            W[:, u] += twice[:, r : r + p]


def _digit_transform(C: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Turn float exponent counts C[j, x] (the weight at x is
    sum_j C[j, x] zeta^j, x's digits most significant first) into the
    (p^dim, p - 1) counts of G(u) = sum_x weight(x) zeta^{-sum_k u_k x_k}
    in the basis {1, ..., zeta^{p-2}}, rows u in natural order.

    Pass k views the counts as (p^k, p^2, R), R = p^{dim-k-1}: a block per
    frequency prefix made so far, the pairs (j, t) of the exponent and the
    top digit of x left, and the rest of x.  It maps (j, t) to (u, j'), so
    u joins the prefix.  Passes are products with B of _pass_matrices for
    p <= DENSE_PASS_MAX_P and the shifts of _shift_pass above it.  The
    dense last pass (R = 1) is one 2-D product with L, which writes the
    reduced counts straight into the spare buffer; after the last shifts
    the zeta^{p-1} column is subtracted instead.

    C holds non-negative counts, and the transform is exact while
    exact_float_dtype(C.sum()) is no wider than C's dtype: before the
    reduction every entry and partial sum is a count of at most C.sum(),
    and a reduced output adds one such count through the +1 entries of L
    and subtracts another through its -1 entries, so in any summation
    order its partial sums lie in [-C.sum(), C.sum()].  Two buffers swap
    roles between passes, C being one of them; the result is a view of
    the spare one."""
    N = C.shape[1]
    dense = p <= DENSE_PASS_MAX_P
    out = np.empty_like(C)
    for k in range(dim - 1 if dense else dim):
        (_dense_pass if dense else _shift_pass)(C, out, p, p ** k)
        C, out = out, C
    G = out.reshape(-1)[: N * (p - 1)].reshape(N, p - 1)
    if dense:
        np.matmul(C.reshape(N // p, p * p), _pass_matrices(p, C.dtype)[1],
                  out=G.reshape(N // p, -1))
    else:  # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
        full = C.reshape(N, p)
        np.subtract(full[:, :-1], full[:, -1:], out=G)
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
    if (p - 1) ** 2 * N ** 2 >= 2 ** 63:
        raise SizeGuard(f"p^n = {N}: (p-1)^2 p^(2n) overflows int64 norms")
    C = np.empty((p, N), dtype=exact_float_dtype(N))
    np.equal(np.arange(p)[:, None], e, out=C)
    G = _digit_transform(C, p, space.dim)
    del C  # frees the other buffer when the result is not in C
    return G


def walsh_full(f: VectorialFunction) -> WalshSpectrum:
    """Exact W_f by the fast transform."""
    _check_p_ary(f)
    G = _char_counts(f.domain, f.table)
    return WalshSpectrum(f.domain, G[f.domain.dual].astype(np.int64))


def walsh_naive(f: VectorialFunction) -> list[CyclotomicInt]:
    """The O(p^{2n}) definition, kept as an independent oracle."""
    _check_p_ary(f)
    sp, p = f.domain, f.p
    table = f.table
    out = []
    for a in range(sp.size):
        counts = [0] * p
        for x in range(sp.size):
            counts[(int(table[x]) - sp.inner_product(a, x)) % p] += 1
        out.append(CyclotomicInt.from_exponent_counts(p, counts))
    return out


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
    order, and the coefficient rows, signs and exponents j in that order)."""
    if n % 2 == 0:
        u = CyclotomicInt.from_int(p, p ** (n // 2))
    else:
        u = p ** ((n - 1) // 2) * gauss_sum(p)
    signs, js = np.tile([1, -1], p), np.repeat(np.arange(p), 2)
    rows = [(int(sign) * u * CyclotomicInt.zeta_pow(p, j)).coeffs for sign, j in zip(signs, js)]
    rows = np.array(rows, dtype=np.int64)
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


def _match_candidates(rows: np.ndarray, p: int, n: int):
    """Match rows of p - 1 ring coefficients, integers in any dtype that
    holds them exactly, against the 2p
    candidates: (matched, which), with which indexing the candidate arrays
    of _candidate_map where matched.  Rows are read a column at a time, so
    no int64 copy of them and no gather of whole candidate rows is made."""
    w, keys, cand_rows, _, _ = _candidate_map(p, n)
    key = np.zeros(rows.shape[0], dtype=np.int64)
    col = np.empty_like(key)
    for j in range(p - 1):
        np.copyto(col, rows[:, j], casting="unsafe")  # exact: integral values
        col *= w[j]
        key += col  # wraps mod 2^64, like the candidate keys
    del col
    which = np.searchsorted(keys, key)
    del key
    np.minimum(which, keys.size - 1, out=which)
    cand_cols = cand_rows.T.astype(rows.dtype)  # exact: |entries| <= 2 p^{n/2}
    matched = rows[:, 0] == cand_cols[0][which]
    for j in range(1, p - 1):
        matched &= rows[:, j] == cand_cols[j][which]
    return matched, which


def classify_bent(f: VectorialFunction) -> BentClassification:
    """Decide bentness, extract the dual and the weak-regularity sign by
    exact matching of every spectrum value against the 2p candidates: f is
    bent iff every value matches (see the module docstring)."""
    _check_p_ary(f)
    sp, p, n = f.domain, f.p, f.domain.dim
    matched, which = _match_candidates(_char_counts(sp, f.table), p, n)
    if not matched.all():
        return BentClassification(False, False, False, None, None)
    _, _, _, cand_signs, cand_js = _candidate_map(p, n)
    taken = np.bincount(which, minlength=cand_signs.size) > 0  # candidates that occur
    signs = cand_signs[taken]
    weakly = bool((signs == signs[0]).all())
    eps = int(signs[0]) if weakly else None
    # row dual[a] of the counts holds W_f(a)
    dual = cand_js[which][sp.dual]
    return BentClassification(
        True,
        weakly,
        weakly and eps == 1,
        eps,
        VectorialFunction(f.domain, f.codomain, dual),
    )


def _scalar_orbits(cod: Field) -> dict[int, tuple[int, int]]:
    """c -> (r, mu) for every nonzero c in cod, with c = mu r and r the least
    rank of the orbit {lambda c : lambda in GF(p)^*}; mu = 1 iff c = r, and
    the representatives come in increasing order.  Ranks below p are the
    prime subfield, so lambda c is cod.mul(lambda, c)."""
    ranks = np.arange(cod.size)
    multiples = [cod.mul(lam, ranks) for lam in range(1, cod.p)]
    orbit: dict[int, tuple[int, int]] = {}
    for c in range(1, cod.size):
        if c not in orbit:
            for lam, row in enumerate(multiples, start=1):
                orbit[int(row[c])] = (c, lam)
    return orbit


def is_vectorial_bent(F: VectorialFunction) -> bool:
    """True iff every nonzero component function is bent.  Bentness is the
    same on a GF(p)^* orbit of components, so one per orbit is classified."""
    return all(
        classify_bent(component(F, c)).is_bent
        for c, (_, mu) in _scalar_orbits(F.codomain).items()
        if mu == 1
    )


@dataclass
class DualBentCertificate:
    """Witness that Fstar is a vectorial dual of F: sigma maps each nonzero
    component index c to the index whose Fstar-component equals (F_c)^*."""

    dual: VectorialFunction
    sigma: dict[int, int]
    epsilons: dict[int, int | None]


def _dual_and_sign(F: VectorialFunction, c: int, narrow) -> tuple[np.ndarray, int | None]:
    """(F_c)^* as a table in the dtype narrow, and eps_c.  Only these are
    kept: the classification's int64 dual table is dropped here."""
    cl = classify_bent(component(F, c))
    if not cl.is_bent:
        raise NotBent(f"component {c} is not bent")
    return cl.dual.table.astype(narrow), cl.epsilon


def dual_bent_certificate(
    F: VectorialFunction, Fstar: VectorialFunction
) -> DualBentCertificate | None:
    """Check (F_c)^* = (Fstar)_{sigma(c)} for every nonzero c.

    Components are visited in the order c = 1, ..., q-1.  The least c of each
    GF(p)^* orbit is classified; any other c = mu r takes its dual and sign
    from its orbit representative r (see the module docstring):
    (F_c)^*(a) = mu (F_r)^*(mu^{-1} a), eps_c = eps_r for even n and
    eta(mu) eps_r for odd n, and None stays None.  Each dual is then looked
    up among the Fstar component tables by its bytes.

    Returns the certificate, or None when Fstar fails to certify F (which
    does not prove F is not dual-bent).  Raises NotBent if some component
    of F is not bent; bentness is the same across an orbit, so the first
    non-bent c met is the least of its orbit.

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
    # held for the whole loop, so in the narrowest dtype that holds [0, p)
    narrow = np.min_scalar_type(p - 1)
    star_index: dict[bytes, list[int]] = {}
    for d in range(1, q):
        star_index.setdefault(component(Fstar, d).table.astype(narrow).tobytes(), []).append(d)
    eta = canonical_field(p, 1).quadratic_character
    reps: dict[int, tuple[np.ndarray, int | None]] = {}
    orbit = _scalar_orbits(F.codomain)
    sigma: dict[int, int] = {}
    epsilons: dict[int, int | None] = {}
    for c in range(1, q):
        r, mu = orbit[c]
        if mu == 1:
            dual, eps = reps[c] = _dual_and_sign(F, c, narrow)
        else:
            dual_r, eps = reps[r]
            times_mu = (mu * np.arange(p) % p).astype(narrow)
            dual = times_mu[dual_r[F.domain.scaled(pow(mu, -1, p))]]
            if n % 2 and eps is not None:
                eps *= eta(mu)
        matches = star_index.get(dual.tobytes(), [])
        if len(matches) != 1:
            return None
        sigma[c] = matches[0]
        epsilons[c] = eps
    if len(set(sigma.values())) != q - 1:
        return None
    return DualBentCertificate(Fstar, sigma, epsilons)


# ---------------------------------------------------------------------------
# algebraic normal form
# ---------------------------------------------------------------------------

def _inverse_vandermonde(p: int) -> list[list[int]]:
    v = [[pow(i, j, p) if j else 1 for j in range(p)] for i in range(p)]
    # Gauss-Jordan over GF(p)
    aug = [row[:] + [int(i == r) for i in range(p)] for r, row in enumerate(v)]
    for col in range(p):
        piv = next(r for r in range(col, p) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(p):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [(x - fac * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[p:] for row in aug]


def anf(f: VectorialFunction) -> dict[tuple[int, ...], int]:
    """Coefficients of the unique polynomial with per-variable degree <= p-1
    agreeing with f on GF(p)^n, by iterated univariate interpolation."""
    _check_p_ary(f)
    sp = f.domain
    if any(fac.m != 1 for fac in sp.factors):
        raise ValueError("anf needs a pure GF(p)^n domain; flatten_domain() first")
    p, n = f.p, sp.dim
    vinv = np.array(_inverse_vandermonde(p), dtype=np.int64)
    # Fortran order: axis k of the cube is digit k of the rank, i.e. x_k
    cube = f.table.reshape((p,) * n, order="F")
    for axis in range(n):
        cube = np.moveaxis(np.tensordot(vinv, cube, axes=([1], [axis])), 0, axis) % p
    nonzero = np.argwhere(cube)
    return dict(zip(map(tuple, nonzero.tolist()), cube[tuple(nonzero.T)].tolist()))


def evaluate_anf(p: int, coeffs: dict[tuple[int, ...], int], digits) -> int:
    total = 0
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(digits, exps):
            if e:
                term = (term * pow(int(x), e, p)) % p
        total += term
    return total % p


# ---------------------------------------------------------------------------
# l-forms and the l-form converse check
# ---------------------------------------------------------------------------

def lform_exponents(f: VectorialFunction) -> set[int]:
    """All l in [1, p-1] with f(a x) = a^l f(x) for every scalar a != 0."""
    _check_p_ary(f)
    sp, p = f.domain, f.p
    table = f.table
    out = set()
    for l in range(1, p):
        if all(
            np.array_equal(table[sp.scaled(a)], (pow(a, l, p) * table) % p)
            for a in range(2, p)
        ):
            out.add(l)
    return out


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
