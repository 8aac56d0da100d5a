"""Values of Z[zeta_p], zeta_p a primitive p-th root of unity.

Ring values are kept as coefficients in the basis {1, zeta, ..., zeta^{p-2}},
along the last axis of a numpy array; two elements are equal iff their
coefficient rows are.  A sum of roots of unity comes as exponent counts,
c[j] the number of terms zeta^j for j = 0..p-1, and reduce_counts is the one
rewrite of those into the basis: the relation 1 + zeta + ... + zeta^{p-1} = 0
turns zeta^{p-1} into -(1 + ... + zeta^{p-2}), so each coefficient is
c[j] - c[p-1].  Counts may be floats that hold integers exactly.  The
transform of spectral applies the same rule to its input and its passes,
and holds no counts between passes.

CyclotomicInt is the record of one reduced value, with Python int (so
arbitrary-precision) coefficients, as Gaussian periods, Walsh values and
the CLI give it; it does no ring arithmetic.  p and the coefficients pass
the field's integer rule, so 1.5, True or '7' never become a coefficient.
"""
from __future__ import annotations

import numpy as np

from .field import _check_integer


def reduce_counts(counts, out=None):
    """Exponent counts c[..., 0..p-1] in the basis {1, ..., zeta^{p-2}}:
    c[..., j] - c[..., p-1], written to out when it is given."""
    return np.subtract(counts[..., :-1], counts[..., -1:], out=out)


class CyclotomicInt:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        p = int(_check_integer(p, "p"))
        coeffs = tuple(int(_check_integer(c, "coefficient")) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "CyclotomicInt":
        """sum_j counts[j] * zeta^j for exponent counts indexed 0..p-1."""
        return cls(p, reduce_counts(np.asarray(counts)).tolist())

    def __eq__(self, other):
        if isinstance(other, int):
            return self == CyclotomicInt.from_int(self.p, other)
        return isinstance(other, CyclotomicInt) and self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, coeffs={list(self.coeffs)})"

    def to_dict(self) -> dict:
        return {"p": self.p, "coeffs": list(self.coeffs)}


def gauss_sum(p: int) -> CyclotomicInt:
    """g = sum_{x in F_p} zeta^{x^2}; satisfies g*g = p if p = 1 mod 4,
    g*g = -p if p = 3 mod 4 (an exact square root of p^* in the ring)."""
    x = np.arange(p, dtype=np.int64)
    return CyclotomicInt.from_exponent_counts(p, np.bincount(x * x % p, minlength=p))
