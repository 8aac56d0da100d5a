"""Test-held oracles for spectral classification.

classify_by_norms is the norms-then-match decision: a function is bent iff
|W(a)|^2 = p^n for every a, computed as int64 norm products of the
spectrum rows, and only then is every value matched against the 2p
candidates +-u zeta^j, built here from their definition and looked up by
their coefficient tuples.  It shares no code with the library's
count-domain matcher beyond walsh_full, so the two decisions can be
compared field by field.

walsh_naive is the O(p^{2n}) definition of the spectrum, one inner product
of space_oracle at a time, the fast transform's oracle.  flatten_domain and
evaluate_anf read a table on GF(p)^n and evaluate an ANF, for the ANF
round trips.
"""
import numpy as np

from bentpds.cyclo import CyclotomicInt, gauss_sum
from bentpds.errors import MatchFailure, SizeGuard
from bentpds.space import prime_space
from bentpds.spectral import VectorialFunction, walsh_full
from space_oracle import inner_product


def walsh_naive(f) -> list[CyclotomicInt]:
    """W_f(a) = sum_x zeta^{f(x) - <a,x>} for every a, point by point."""
    if f.s != 1:
        raise ValueError(f"a p-ary (s = 1) function is needed, got s = {f.s}")
    sp, p = f.domain, f.p
    out = []
    for a in range(sp.size):
        counts = [0] * p
        for x in range(sp.size):
            counts[(int(f.table[x]) - inner_product(sp, a, x)) % p] += 1
        out.append(CyclotomicInt.from_exponent_counts(p, counts))
    return out


def flatten_domain(f):
    """Reinterpret the domain as GF(p)^n; the digit encoding makes the table
    carry over unchanged."""
    return VectorialFunction(prime_space(f.p, f.domain.dim), f.codomain, f.table)


def evaluate_anf(p: int, coeffs: dict[tuple[int, ...], int], digits) -> int:
    total = 0
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(digits, exps):
            if e:
                term = (term * pow(int(x), e, p)) % p
        total += term
    return total % p


def check_int64_norms(spectrum) -> None:
    """Refuse a spectrum whose norm products may overflow int64.  Every
    coefficient of a p^n-point spectrum lies in [-p^n, p^n], so an entry of
    a product, the difference of two sums of p - 1 terms, is at most
    2 (p - 1) p^{2n} <= (p - 1)^2 p^{2n} in magnitude for p >= 3."""
    p, N = spectrum.p, spectrum.space.size
    if (p - 1) ** 2 * N ** 2 >= 2 ** 63:
        raise SizeGuard(f"p^n = {N}: (p-1)^2 p^(2n) overflows int64 norms")


def conj_products(A: np.ndarray, p: int) -> np.ndarray:
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


def parseval_ok(spectrum) -> bool:
    """sum_a |W(a)|^2 = p^{2n}; individual |W(a)|^2 may be irrational."""
    check_int64_norms(spectrum)
    p = spectrum.p
    total = conj_products(spectrum.coeff_rows, p).sum(axis=0).tolist()
    return total == [p ** (2 * spectrum.space.dim)] + [0] * (p - 2)


def candidates(p, n):
    """(rows, signs, js) of +-u zeta^j, built from the definition."""
    u = CyclotomicInt.from_int(p, p ** (n // 2)) if n % 2 == 0 else p ** (n // 2) * gauss_sum(p)
    items = [(sign, j) for j in range(p) for sign in (1, -1)]
    rows = np.array([(sign * u * CyclotomicInt.zeta_pow(p, j)).coeffs for sign, j in items])
    signs, js = map(np.array, zip(*items))
    return rows, signs, js


def classify_by_norms(f):
    """(is_bent, weakly_regular, regular, epsilon, dual table or None) by
    norms first, then matching; a bent value that matches no candidate
    raises MatchFailure."""
    spectrum = walsh_full(f)
    check_int64_norms(spectrum)
    p, n = f.p, f.domain.dim
    norms = conj_products(spectrum.coeff_rows, p)
    if not ((norms[:, 0] == p ** n).all() and not norms[:, 1:].any()):
        return False, False, False, None, None
    rows, signs, js = candidates(p, n)
    lookup = {tuple(row): (int(sign), int(j)) for row, sign, j in zip(rows.tolist(), signs, js)}
    found = []
    for a, row in enumerate(spectrum.coeff_rows.tolist()):
        if tuple(row) not in lookup:
            raise MatchFailure(f"bent value at a={a} matches no candidate")
        found.append(lookup[tuple(row)])
    eps_all = {sign for sign, _ in found}
    weakly = len(eps_all) == 1
    eps = found[0][0] if weakly else None
    return True, weakly, weakly and eps == 1, eps, [j for _, j in found]
