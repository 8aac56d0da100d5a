"""Test-held searches for a field's modulus and primitive element.

Irreducibility is decided by trial division against every monic polynomial
of degree <= m/2, and the order of an element by integer matrix powers of
its multiplication matrix, built from the modulus and the base-p digits of
its rank.  Neither reads a Field table or calls into bentpds.field, so the
library's Rabin test and batched order test can be compared with them.
"""
import itertools

import numpy as np


def poly_remainder(num, den, p):
    """num mod den over GF(p), coefficient lists low degree first."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def is_irreducible(coeffs, p) -> bool:
    """Trial division against every monic polynomial of degree <= m/2."""
    m = len(coeffs) - 1
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if poly_remainder(coeffs, list(tail) + [1], p) == [0]:
                return False
    return True


def smallest_irreducible(p, m):
    """The first irreducible monic of degree m, coefficients compared most
    significant first."""
    for msd in itertools.product(range(p), repeat=m):
        coeffs = tuple(reversed(msd)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs


def prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] * (n > 1)


def mul_matrix(p, modulus, c):
    """M with digits(c y) = digits(y) @ M mod p, from the modulus alone."""
    m = len(modulus) - 1
    shift = np.eye(m, k=1, dtype=np.int64)  # y -> x y, with x^m reduced below
    shift[-1] = [-c0 % p for c0 in modulus[:m]]
    out, x_pow = np.zeros((m, m), dtype=np.int64), np.eye(m, dtype=np.int64)
    for _ in range(m):
        c, d = divmod(c, p)
        out = (out + d * x_pow) % p
        x_pow = x_pow @ shift % p
    return out


def mat_pow(mat, k, p):
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return out


def is_primitive(p, modulus, c) -> bool:
    """c has order p^m - 1: c^((p^m - 1)/f) != 1 for every prime f, read
    off row 0 of the matrix power (row 0 holds the digits of c^k)."""
    m = len(modulus) - 1
    q1 = p ** m - 1
    one = np.eye(m, dtype=np.int64)[0]
    mat = mul_matrix(p, modulus, c)
    return all((mat_pow(mat, q1 // f, p)[0] != one).any() for f in prime_factors(q1))


def least_primitive(p, modulus):
    return next(c for c in range(2, p ** (len(modulus) - 1)) if is_primitive(p, modulus, c))
