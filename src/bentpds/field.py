"""Exact arithmetic in GF(p^m) for odd primes p.

Elements are integer ranks in [0, p^m): the base-p digits of a rank are the
coefficients of the polynomial-basis representation, least-significant digit
first (rank 0 is the additive, rank 1 the multiplicative identity).

Addition runs digitwise on a table of those coefficients; multiplication
runs through exp/log tables built from the least-rank primitive element.
Every operation is table-driven, exact, and elementwise on rank arrays.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InverseOfZero,
    NotADivisor,
    ReducibleModulus,
    SizeGuard,
    ZeroArgument,
    ZeroBeta,
)
from .limits import exceeds, table_cap


def _integer_entries(values) -> bool:
    """The one integer rule: an integer array, or entries that are int or
    numpy integers and none a bool.  numpy and int() take 1.5, True and '1'
    for integers, so entries are checked by their types."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iu"
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values)))


def _check_integer(x, what: str):
    """x, after checking that it is an integer by _integer_entries' rule."""
    if not _integer_entries((x,)):
        raise ValueError(f"{what} = {x!r} must be an integer")
    return x


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- polynomial helpers over Z_p (coefficient lists, low degree first) ----

def _poly_divmod(num, den, p):
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
    return num  # remainder only


def _poly_is_irreducible(coeffs, p) -> bool:
    # trial division against every monic polynomial of degree <= m/2;
    # fine at desk scale, and degree-1 factors double as a root check
    m = len(coeffs) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            if _poly_divmod(coeffs, den, p) == [0]:
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Coefficient sequences are compared most-significant first, which makes
    the selected modulus reproducible across runs.
    """
    if m == 1:
        return (0, 1)
    for msd in itertools.product(range(p), repeat=m):
        coeffs = tuple(reversed(msd)) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, m={m}")


class Field:
    """GF(p^m) with its digit and exp/log tables held as numpy arrays;
    immutable after construction.  Arithmetic works elementwise on rank
    arrays; int arguments give int results."""

    def __init__(self, p: int, m: int, modulus=None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # the size test comes first, so that outsized input costs no work
        if p > 1 and exceeds(p, m, table_cap()):
            raise SizeGuard(f"GF({p}^{m}) exceeds the explicit-table cap {table_cap()}")
        if not is_prime(p) or p == 2:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _poly_is_irreducible(list(modulus), p):
            raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.size = p ** m
        self._powers = p ** np.arange(m, dtype=np.int64)
        # digits[r] = polynomial-basis coefficients of rank r; the dtype is
        # the narrowest that holds the sum of two digits
        ranks = np.arange(self.size, dtype=np.int64)
        self._digits = (ranks[:, None] // self._powers % p).astype(np.min_scalar_type(2 * p - 2))
        # exp[i] = g^i for the least-rank g of order p^m - 1; log inverts it.
        # Row 0 of the matrix of y -> g^k y holds the digits of g^k.
        q1 = self.size - 1
        self._generator = next(
            g for g in range(2, self.size)
            if all((_mat_pow(self._mul_matrix(g), q1 // f, p)[0] != self._digits[1]).any()
                   for f in _prime_factors(q1))
        )
        self._exp = self._powers_of(self._generator)
        self._log = np.zeros(self.size, dtype=np.int64)
        self._log[self._exp] = np.arange(q1)

    # -- construction internals ------------------------------------------

    def _mul_matrix(self, c: int) -> np.ndarray:
        """M with digits(c y) = digits(y) @ M mod p."""
        p, m = self.p, self.m
        shift = np.eye(m, k=1, dtype=np.int64)  # y -> x y, with x^m reduced below
        shift[-1] = [-c0 % p for c0 in self.modulus[:m]]
        out, x_pow = np.zeros((m, m), dtype=np.int64), np.eye(m, dtype=np.int64)
        for d in self._digits[c]:
            out = (out + int(d) * x_pow) % p
            x_pow = x_pow @ shift % p
        return out

    def _powers_of(self, g: int) -> np.ndarray:
        """Ranks of g^0, ..., g^{q-2} by doubling: the block g^{k..2k-1} is the
        block g^{0..k-1} times g^k, a linear map on digit rows."""
        p, q1 = self.p, self.size - 1
        digits = np.zeros((q1, self.m), dtype=np.int64)
        digits[0, 0] = 1
        step, k = self._mul_matrix(g), 1
        while k < q1:
            n = min(k, q1 - k)
            digits[k : k + n] = digits[:n] @ step % p
            step, k = step @ step % p, k + n
        return digits @ self._powers

    def _rank(self, digits):
        return _ranks_out(digits @ self._powers)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return self._rank((self._digits[a] + self._digits[b]) % self.p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._rank((self.p - self._digits[a]) % self.p)

    def mul(self, a, b):
        prod = self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]
        return _ranks_out(prod * ((a != 0) & (b != 0)))

    def inv(self, a):
        return self.pow(a, -1)

    def pow(self, a, e: int):
        if e < 0 and (np.asarray(a) == 0).any():
            raise InverseOfZero("0 has no inverse")
        q1 = self.size - 1
        # log * e < (p^m)^2 fits int64 for every field whose tables fit in memory
        r = self._exp[self._log[a] * (e % q1) % q1]
        return _ranks_out(r * (a != 0) if e > 0 else r)

    def log_residue(self, a, g: int):
        """r = log a mod g to the base of the primitive element w, -1 at a = 0,
        for a positive divisor g of p^m - 1 (ValueError otherwise): a lies in
        the coset w^r H_g of H_g = { x^g : x != 0 }."""
        if _check_integer(g, "g") < 1 or (self.size - 1) % g:
            raise ValueError(f"g = {g} must be a positive divisor of {self.size - 1}")
        return _ranks_out(np.where(np.asarray(a) == 0, -1, self._log[a] % g))

    def multiplicative_order(self, a: int) -> int:
        if self.check_rank(a) == 0:
            raise ZeroArgument("0 has no multiplicative order")
        q1 = self.size - 1
        return q1 // math.gcd(self.log_residue(a, q1), q1)

    def check_rank(self, a: int, what: str = "element") -> int:
        """a, after checking that it is an integer rank of this field.  For
        ranks that enter from outside; the arithmetic itself never checks."""
        if not 0 <= _check_integer(a, what) < self.size:
            raise ValueError(f"{what} = {a} must be a rank in [0, {self.size})")
        return a

    @property
    def primitive_element(self) -> int:
        """Least-rank element of multiplicative order p^m - 1."""
        return self._generator

    # -- structure ---------------------------------------------------------

    def trace(self, k: int, a):
        """Tr_k^m(a) = sum of a^{p^{k i}}, returned as a rank of the
        canonical GF(p^k); requires k | m, which subfield(k) checks."""
        return _ranks_out(self._trace_table(k)[a])

    @lru_cache(maxsize=None)
    def _trace_table(self, k: int) -> np.ndarray:
        # Tr_k^m is GF(p)-linear, Tr(x) = sum_j x_j Tr(x^j) over the digits
        # x_j, so the Frobenius sum runs on the m basis elements alone; row j
        # of T holds the canonical GF(p^k) digits of Tr(x^j)
        sub, _, proj = self.subfield(k)
        basis = self._powers  # the ranks of 1, x, ..., x^(m-1)
        total = conj = basis
        for _ in range(self.m // k - 1):
            conj = self.pow(conj, self.p ** k)
            total = self.add(total, conj)
        T = sub._digits[proj[total]].astype(np.int64)
        return self._digits @ T % self.p @ sub._powers

    @cached_property
    def dual_map(self) -> np.ndarray:
        """dual_map[a] = the rank u with Tr_1^m(a y) = sum_j u_j y_j for all
        y (digitwise mod p): u packs the digits (Tr_1^m(a x^j))_j.  On GF(p)
        it is the identity."""
        r = np.arange(self.size, dtype=np.int64)
        return sum(self.trace(1, self.mul(r, self.p ** j)) * self.p ** j for j in range(self.m))

    def quadratic_character(self, a: int) -> int:
        """+1 iff a is a nonzero square (a^{(q-1)/2} = 1), -1 otherwise."""
        if self.check_rank(a) == 0:
            raise ZeroArgument("quadratic character of 0 is undefined")
        return 1 - 2 * self.log_residue(a, 2)

    def nonsquares(self) -> frozenset[int]:
        return self.subgroup_coset(2, self.primitive_element).members

    def subgroup_coset(self, exponent: int, beta: int) -> "CosetSet":
        """beta H_l for H_l = { x^l : x != 0 }, by log residue mod gcd(l, p^m - 1)."""
        if self.check_rank(beta, "beta") == 0:
            raise ZeroBeta("coset representative must be nonzero")
        if _check_integer(exponent, "exponent") < 1:
            raise ValueError("exponent must be >= 1")
        r = self.log_residue(np.arange(self.size), math.gcd(exponent, self.size - 1))
        return CosetSet(r == r[beta])

    @lru_cache(maxsize=None)
    def subfield(self, s: int):
        """Canonical copy of GF(p^s) inside this field, s | m.

        Returns (subfield, embed, proj) with read-only int64 rank arrays:
        embed[r] is the image in this field of the canonical GF(p^s) rank r,
        and proj the inverse map, -1 at ranks outside the image.
        The image of the canonical generator is the least-rank root of its
        minimal polynomial inside the fixed set of x -> x^{p^s}, which is
        what makes the map a field homomorphism rather than merely a
        homomorphism of the cyclic groups.
        """
        if s < 1:
            raise ValueError(f"subfield degree must be >= 1, got {s}")
        if self.m % s != 0:
            raise NotADivisor(f"{s} does not divide {self.m}")
        if s == self.m:
            # a field is its own canonical degree-m subfield copy
            embed = np.arange(self.size, dtype=np.int64)
            embed.flags.writeable = False
            return self, embed, embed
        sub = canonical_field(self.p, s)
        g = sub.primitive_element
        values = 0  # the minimal polynomial at every rank, by Horner
        for c in reversed(_minimal_polynomial(sub, g)):
            values = self.add(self.mul(values, np.arange(self.size)), c)
        root = int(np.flatnonzero(values == 0)[0])
        # each subfield element from its coordinates in the power basis {g^j}
        # (prime-field constants have the same rank in both fields)
        image_sub = image_big = 0
        for j in range(s):
            c = sub._digits[:, j]
            image_sub = sub.add(image_sub, sub.mul(c, sub.pow(g, j)))
            image_big = self.add(image_big, self.mul(c, self.pow(root, j)))
        embed = np.empty(sub.size, dtype=np.int64)
        embed[image_sub] = image_big
        proj = np.full(self.size, -1, dtype=np.int64)
        proj[embed] = np.arange(sub.size)
        embed.flags.writeable = proj.flags.writeable = False
        return sub, embed, proj

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        return cls(int(d["p"]), int(d["m"]), d["modulus"])


def _prime_factors(n: int):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _mat_pow(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return out


def _ranks_out(r):
    """Rank arrays pass through; a single rank comes back as an int."""
    return r if isinstance(r, np.ndarray) and r.ndim else int(r)


def _minimal_polynomial(sub: Field, g: int):
    """Coefficients over GF(p) of prod_i (y - g^{p^i}) computed in `sub`."""
    conjugates = []
    x = g
    while x not in conjugates:
        conjugates.append(x)
        x = sub.pow(x, sub.p)
    poly = [1]  # in sub ranks, low degree first
    for c in conjugates:
        nxt = [0] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            nxt[i + 1] = sub.add(nxt[i + 1], coeff)
            nxt[i] = sub.sub(nxt[i], sub.mul(c, coeff))
        poly = nxt
    for coeff in poly:
        if coeff >= sub.p:
            raise AssertionError("minimal polynomial has non-prime-field coefficient")
    return poly


@dataclass(frozen=True, eq=False)
class CosetSet:
    """beta * H_l inside a field's multiplicative group, as a mask on ranks."""

    mask: np.ndarray

    @property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())


@lru_cache(maxsize=None)
def canonical_field(p: int, m: int) -> Field:
    """The GF(p^m) with the auto-selected modulus; cached per (p, m)."""
    return Field(p, m)
