"""Walsh spectra over Z[zeta_p], bentness classification, duals, and
vectorial dual-bent certificates.

The full transform W_f(a) = sum_x zeta^{f(x) - <a,x>} is computed by a
radix-p fast transform: n rounds of exact p-point DFTs over Z[zeta_p], one
per GF(p)-coordinate.  Ring arrays in the transform are exponent counts of
shape (p^n, p), C[x, j] = the coefficient of zeta^j at x, with the exponent
axis last.  A pass multiplies by zeta^{-u t} (t the digit of x, u that of
the frequency), which sends exponent j to j - u t: a fixed 0/1 map on the
p^2 (t, j) pairs.  Digit 0 of x sits next to j, so for p <= 13 a pass is
one stacked BLAS product of C.reshape(1, p^n / p, p^2) with a (p, p^2, p)
matrix.  Only 1 in p of its p^4 entries is nonzero, so for larger p a pass
is p^2 slice-adds of shifted exponent rows instead.  Either way the pass
writes u above the remaining digits (Stockham order), so after n passes the
frequencies are in natural order with no transpose or digit reversal.  The
counts are floats: every entry and partial sum counts points x, so its
magnitude is at most p^n, exact in float32 while p^n < 2^24 and in float64
while p^n < 2^53 (limits.exact_float_dtype).  The result is reduced to the
basis {1, zeta, ..., zeta^{p-2}} once, by the
CyclotomicInt.from_exponent_counts rule, and its int64 rows form
WalshSpectrum.coeff_rows.  Transform coefficients stay within p^n, but the
products of _conj_products (norms and Parseval) reach about
(p-1)^2 p^{2n}; char_weight_transform refuses spaces where that bound
reaches 2^63, so int64 accumulation is exact wherever it runs.  The naive
quadratic sum is kept alongside as a cross-check oracle.

Bentness and regularity are decided by exact candidate matching: a bent
value must equal one of the 2p ring elements +-u zeta^j, where u = p^{n/2}
for even n and u = p^{(n-1)/2} g for odd n (g the quadratic Gauss sum, an
exact square root of p^* in the ring).  There are no tolerances anywhere.
For odd n the recorded sign is relative to that Gauss-sum normalisation.
Matching is key-then-verify: each coefficient row gets one int64 key (a dot
product with fixed pseudo-random weights, wrapping mod 2^64), a binary
search among the 2p distinct candidate keys proposes one candidate, and a
full-row equality confirms it.  A row equal to a candidate has that
candidate's key, so it is found; any other row fails the equality, so the
match stays exact whatever the keys collide with.

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
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (domain.size,):
            raise ValueError(f"table must have length {domain.size}")
        if table.size and (table.min() < 0 or table.max() >= codomain.size):
            raise ValueError("table entries must lie in [0, p^s)")
        self.domain = domain
        self.codomain = codomain
        self.table = table

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
# against the p^2 N adds of the shifts; BLAS outruns the shifts up to about
# p = 17, and past that the shifts win by a growing factor.
DENSE_PASS_MAX_P = 13


@lru_cache(maxsize=None)  # one entry per (p <= DENSE_PASS_MAX_P, dtype)
def _pass_matrix(p: int, dtype: np.dtype) -> np.ndarray:
    """A[u, t p + j, j'] = 1 iff j' = j - u t (mod p): the digit pass that
    takes the count at (digit t, exponent j) to (digit u, exponent j').
    Shared between calls, so read-only."""
    u, t, j = np.indices((p, p, p))
    A = np.zeros((p, p * p, p), dtype=dtype)
    A[u, t * p + j, (j - u * t) % p] = 1
    A.setflags(write=False)
    return A


def _dense_pass(C: np.ndarray, out: np.ndarray, p: int) -> None:
    rows = C.shape[0] // p
    np.matmul(C.reshape(1, rows, p * p), _pass_matrix(p, C.dtype),
              out=out.reshape(p, rows, p))


def _shift_pass(C: np.ndarray, out: np.ndarray, p: int) -> None:
    """The same pass as _dense_pass in p^2 adds of N counts: digit t
    reaches digit u shifted by u t on the exponent axis, read as one slice
    of the counts of t written twice."""
    rows = C.shape[0] // p
    V = C.reshape(rows, p, p)
    W = out.reshape(p, rows, p)
    W[:] = V[:, 0]  # t = 0 shifts nothing
    twice = np.empty((rows, 2 * p), dtype=C.dtype)
    for t in range(1, p):
        twice[:, :p] = twice[:, p:] = V[:, t]
        for u in range(p):
            r = u * t % p
            W[u] += twice[:, r : r + p]


def _digit_transform(C: np.ndarray, p: int, dim: int) -> np.ndarray:
    """Turn float exponent counts C[x, j] (the weight at x is
    sum_j C[x, j] zeta^j) into the counts of
    G(u) = sum_x weight(x) zeta^{-sum_k u_k x_k}, one pass per digit.
    Each pass contracts digit 0 of x and the exponent and writes the new
    digit u on top, so after dim passes u is in natural order.  A pass is
    the product with _pass_matrix for p <= DENSE_PASS_MAX_P and the shifts
    of _shift_pass above it.  Exact while exact_float_dtype(sum |C|) is no
    wider than C's dtype: no entry or partial sum exceeds sum |C|.  Two
    buffers swap roles between passes, C being one of them; returns the one
    holding the result."""
    digit_pass = _dense_pass if p <= DENSE_PASS_MAX_P else _shift_pass
    out = np.empty_like(C)
    for _ in range(dim):
        digit_pass(C, out, p)
        C, out = out, C
    return C


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

    def parseval_ok(self) -> bool:
        # individual |W(a)|^2 may be irrational; only the sum must equal p^{2n}
        total = _conj_products(self.coeff_rows, self.p).sum(axis=0).tolist()
        return total == [self.p ** (2 * self.space.dim)] + [0] * (self.p - 2)

    def to_json(self) -> list:
        return [{"p": self.p, "coeffs": row} for row in self.coeff_rows.tolist()]


def _conj_products(A: np.ndarray, p: int) -> np.ndarray:
    """Row-wise a * conj(a) as coefficient rows.  Its exponent counts are the
    cyclic autocorrelation c[d] = sum_i a_i a_{i-d} of (a_0, ..., a_{p-2}, 0);
    c[p-d] = c[d], so c[p-1] = c[1] is the count the reduction subtracts."""
    c = []
    for d in range((p + 1) // 2):
        acc = np.zeros(A.shape[0], dtype=np.int64)
        for i in range(p - 1):
            if (i - d) % p < p - 1:
                acc += A[:, i] * A[:, (i - d) % p]
        c.append(acc)
    prod = np.empty((p - 1, A.shape[0]), dtype=np.int64)
    for d in range(p - 1):
        np.subtract(c[min(d, p - d)], c[1], out=prod[d])
    return prod.T


def char_weight_transform(space: Space, points, exponents) -> WalshSpectrum:
    """T(a) = sum over x in points of zeta^{e(x) - <a,x>}, where points are
    distinct ranks and exponents holds e(x) for each of them (or one e for
    all).  The counts C[x, j] are one-hot, so no count of the transform
    exceeds p^n; the float dtype is chosen from that bound."""
    N, p = space.size, space.p
    if N > walsh_cap():
        raise SizeGuard(f"p^n = {N} exceeds the transform cap")
    if (p - 1) ** 2 * N ** 2 >= 2 ** 63:
        raise SizeGuard(f"p^n = {N}: (p-1)^2 p^(2n) overflows int64 norms")
    C = np.zeros((N, p), dtype=exact_float_dtype(N))
    C[points, exponents] = 1
    G = _digit_transform(C, p, space.dim)
    del C  # frees the other buffer when the result is not C
    G[:, :-1] -= G[:, -1:]  # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    return WalshSpectrum(space, G[space.dual, :-1].astype(np.int64))


def walsh_full(f: VectorialFunction) -> WalshSpectrum:
    """Exact W_f by the fast transform."""
    _check_p_ary(f)
    return char_weight_transform(f.domain, np.arange(f.domain.size), f.table)


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
    spectrum: WalshSpectrum


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
    if np.unique(keys).size != keys.size:
        raise MatchFailure(f"candidate keys collide for p={p}, n={n}")
    return w, keys[order], rows[order], signs[order], js[order]


def _match_candidates(rows: np.ndarray, p: int, n: int):
    """Match coefficient rows against the 2p candidates: (matched, signs, js),
    with signs and js meaningful where matched.  One key per row proposes a
    candidate and a full-row equality confirms it."""
    w, keys, cand_rows, cand_signs, cand_js = _candidate_map(p, n)
    which = np.searchsorted(keys, rows @ w)
    np.minimum(which, keys.size - 1, out=which)
    matched = (cand_rows[which] == rows).all(axis=1)
    return matched, cand_signs[which], cand_js[which]


def classify_bent(f: VectorialFunction) -> BentClassification:
    """Decide bentness, extract the dual and the weak-regularity sign by
    exact matching of every spectrum value against the 2p candidates."""
    spectrum = walsh_full(f)
    p, n = f.p, f.domain.dim
    norms = _conj_products(spectrum.coeff_rows, p)
    bent = bool((norms[:, 0] == p ** n).all()) and not norms[:, 1:].any()
    del norms  # freed before the candidate arrays: it would set the peak
    if not bent:
        return BentClassification(False, False, False, None, None, spectrum)
    matched, signs, dual = _match_candidates(spectrum.coeff_rows, p, n)
    if not matched.all():
        a = int(np.argmin(matched))
        raise MatchFailure(f"bent value at a={a} matches no candidate")
    weakly = bool((signs == signs[0]).all())
    eps = int(signs[0]) if weakly else None
    return BentClassification(
        True,
        weakly,
        weakly and eps == 1,
        eps,
        VectorialFunction(f.domain, f.codomain, dual),
        spectrum,
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
    """(F_c)^* as a table in the dtype narrow, and eps_c.  Only these leave:
    the classification holds an N x (p-1) int64 spectrum."""
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
