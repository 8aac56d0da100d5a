"""Test-held oracles for spectral classification.

classify_by_norms is the norms-then-match decision: a function is bent iff
|W(a)|^2 = p^n for every a, computed as int64 norm products of the
spectrum rows, and only then is every value matched against the 2p
candidates +-u zeta^j, built here from their definition and looked up by
their coefficient tuples.  It shares no code with the library's
count-domain matcher beyond walsh_full, so the two decisions can be
compared field by field.

walsh_naive is the O(p^{2n}) definition of the spectrum, the fast
transform's oracle, as one integer product: <a, x> = sum_k u_k x_k mod p
over the digits x_k of x and u_k of u = space_oracle.dual_rank(a), so the
exponents f(x) - <a, x> of every a are a row of (f - U X^T) mod p, counted
with np.bincount.  walsh_pointwise is the same definition one inner
product of space_oracle at a time, walsh_naive's own oracle on small
spaces.  Both, and the candidates, build their ring values in the oracle
ring of ring_oracle.
"""
import numpy as np

from bentpds.errors import MatchFailure, SizeGuard
from bentpds.spectral import walsh_full
from ring_oracle import RingInt, gauss_sum
from space_oracle import digits, dual_rank, inner_product


# entries of U X^T formed at a time: about 64 MB of int64
_NAIVE_BLOCK = 8_000_000


def _check_p_ary(f) -> None:
    if f.s != 1:
        raise ValueError(f"a p-ary (s = 1) function is needed, got s = {f.s}")


def walsh_naive(f) -> list[RingInt]:
    """W_f(a) = sum_x zeta^{f(x) - <a,x>} for every a: X holds the digits
    of every x and U those of dual_rank(a) for every a, and each row of
    E = (f - U X^T) mod p, taken in blocks of rows, is counted with one
    np.bincount of E + p * row."""
    _check_p_ary(f)
    sp, p, N = f.domain, f.p, f.domain.size
    X = np.array([digits(sp, x) for x in range(N)], dtype=np.int64).reshape(N, sp.dim)
    U = np.array([digits(sp, dual_rank(sp, a)) for a in range(N)],
                 dtype=np.int64).reshape(N, sp.dim)
    values = np.asarray(f.table, dtype=np.int64)
    out = []
    block = max(1, _NAIVE_BLOCK // N)
    for start in range(0, N, block):
        E = (values - U[start:start + block] @ X.T) % p
        rows = E.shape[0]
        E += p * np.arange(rows)[:, None]
        counts = np.bincount(E.ravel(), minlength=rows * p).reshape(rows, p)
        out += [RingInt.from_exponent_counts(p, row) for row in counts.tolist()]
    return out


def walsh_pointwise(f) -> list[RingInt]:
    """W_f(a) = sum_x zeta^{f(x) - <a,x>} for every a, point by point."""
    _check_p_ary(f)
    sp, p = f.domain, f.p
    out = []
    for a in range(sp.size):
        counts = [0] * p
        for x in range(sp.size):
            counts[(int(f.table[x]) - inner_product(sp, a, x)) % p] += 1
        out.append(RingInt.from_exponent_counts(p, counts))
    return out


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
    u = RingInt.from_int(p, p ** (n // 2)) if n % 2 == 0 else p ** (n // 2) * gauss_sum(p)
    items = [(sign, j) for j in range(p) for sign in (1, -1)]
    rows = np.array([(sign * u * RingInt.zeta_pow(p, j)).coeffs for sign, j in items])
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
