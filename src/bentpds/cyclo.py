"""Exact arithmetic in Z[zeta_p], zeta_p a primitive p-th root of unity.

Elements are stored on the basis {1, zeta, ..., zeta^{p-2}}; the relation
1 + zeta + ... + zeta^{p-1} = 0 rewrites zeta^{p-1} eagerly, so equality is
a coefficient comparison and no floating point appears anywhere.
Coefficients are Python ints, hence arbitrary precision.
"""
from __future__ import annotations

from .errors import MixedPrime, ZeroBeta


class CyclotomicInt:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zeta_pow(cls, p: int, j: int) -> "CyclotomicInt":
        counts = [0] * p
        counts[j % p] = 1
        return cls.from_exponent_counts(p, counts)

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "CyclotomicInt":
        """sum_j counts[j] * zeta^j for exponent counts indexed 0..p-1."""
        top = counts[p - 1]
        return cls(p, [counts[i] - top for i in range(p - 1)])

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise MixedPrime(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.p, [other * a for a in self.coeffs])
        self._check(other)
        p = self.p
        acc = [0] * p  # exponent accumulator before the zeta^{p-1} rewrite
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        acc[(i + j) % p] += a * b
        return CyclotomicInt.from_exponent_counts(p, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self == CyclotomicInt.from_int(self.p, other)
        return isinstance(other, CyclotomicInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self):
        """The rational integer this element equals, or None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, coeffs={list(self.coeffs)})"

    def to_dict(self) -> dict:
        return {"p": self.p, "coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, d: dict) -> "CyclotomicInt":
        return cls(int(d["p"]), d["coeffs"])


def automorphism(beta: int, a: CyclotomicInt) -> CyclotomicInt:
    """The ring automorphism zeta -> zeta^beta, 1 <= beta <= p-1."""
    p = a.p
    if beta % p == 0:
        raise ZeroBeta("beta must be nonzero mod p")
    beta %= p
    acc = [0] * p
    for i, c in enumerate(a.coeffs):
        acc[(i * beta) % p] += c
    return CyclotomicInt.from_exponent_counts(p, acc)


def conjugate(a: CyclotomicInt) -> CyclotomicInt:
    return automorphism(a.p - 1, a)


def conj_norm(a: CyclotomicInt):
    """|a|^2 = a * conj(a) when that product is a rational integer, else None."""
    return (a * conjugate(a)).as_int()


def gauss_sum(p: int) -> CyclotomicInt:
    """g = sum_{x in F_p} zeta^{x^2}; satisfies g*g = p if p = 1 mod 4,
    g*g = -p if p = 3 mod 4 (an exact square root of p^* in the ring)."""
    counts = [0] * p
    for x in range(p):
        counts[(x * x) % p] += 1
    return CyclotomicInt.from_exponent_counts(p, counts)
