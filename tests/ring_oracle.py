"""Test-held arithmetic in Z[zeta_p], the oracle ring.

RingInt is the library's value record CyclotomicInt with the ring
operations added, on Python int coefficients in the basis
{1, zeta, ..., zeta^{p-2}}.  A product accumulates exponent counts
0..p-1 and rewrites zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}) with its
own loop (RingInt.from_exponent_counts), never with the library's count
reduction, so values built here check that reduction wherever a test
compares them with library output.  gauss_sum, automorphism, conjugate
and conj_norm are built on the same ring.
"""
from bentpds.cyclo import CyclotomicInt
from bentpds.errors import ZeroBeta


class MixedPrime(ValueError):
    """Elements of Z[zeta_p] for two different p met in one operation."""


class RingInt(CyclotomicInt):
    __slots__ = ()

    @classmethod
    def zero(cls, p: int) -> "RingInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def zeta_pow(cls, p: int, j: int) -> "RingInt":
        counts = [0] * p
        counts[j % p] = 1
        return cls.from_exponent_counts(p, counts)

    @classmethod
    def from_exponent_counts(cls, p: int, counts) -> "RingInt":
        """sum_j counts[j] * zeta^j for exponent counts indexed 0..p-1."""
        top = counts[p - 1]
        return cls(p, [counts[i] - top for i in range(p - 1)])

    @classmethod
    def from_dict(cls, d: dict) -> "RingInt":
        return cls(int(d["p"]), d["coeffs"])

    def _check(self, other):
        if self.p != other.p:
            raise MixedPrime(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check(other)
        return RingInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return RingInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return RingInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return RingInt(self.p, [other * a for a in self.coeffs])
        self._check(other)
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                acc[(i + j) % p] += a * b
        return RingInt.from_exponent_counts(p, acc)

    __rmul__ = __mul__

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_int(self):
        """The rational integer this element equals, or None."""
        return None if any(self.coeffs[1:]) else self.coeffs[0]


def gauss_sum(p: int) -> RingInt:
    """g = sum_{x in F_p} zeta^{x^2}, with g^2 = p* = +-p = 1 mod 4."""
    counts = [0] * p
    for x in range(p):
        counts[x * x % p] += 1
    return RingInt.from_exponent_counts(p, counts)


def automorphism(beta: int, a: CyclotomicInt) -> RingInt:
    """The ring automorphism zeta -> zeta^beta, beta nonzero mod p."""
    p = a.p
    if beta % p == 0:
        raise ZeroBeta("beta must be nonzero mod p")
    acc = [0] * p
    for i, c in enumerate(a.coeffs):
        acc[i * beta % p] += c
    return RingInt.from_exponent_counts(p, acc)


def conjugate(a: CyclotomicInt) -> RingInt:
    return automorphism(a.p - 1, a)


def conj_norm(a: CyclotomicInt):
    """|a|^2 = a * conj(a) when that product is a rational integer, else None."""
    return (conjugate(a) * a).as_int()
