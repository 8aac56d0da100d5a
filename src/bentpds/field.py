"""Exact arithmetic in GF(p^m) for odd primes p.

Elements are integer ranks in [0, p^m): the base-p digits of a rank are the
coefficients of the polynomial-basis representation, least-significant digit
first (rank 0 is the additive, rank 1 the multiplicative identity).

Addition runs digitwise on a table of those coefficients; multiplication
runs through exp/log tables built from the least-rank primitive element.
Every operation is table-driven, exact, and elementwise on rank arrays.

How each table is built, and why it is exact:

- The modulus is the lexicographically least monic irreducible, decided
  by Ben-Or's form of Rabin's test (x^(p^k) - x prime to f for every
  k <= m/2) in Python integer polynomial arithmetic mod p.
- The digit table is built a digit at a time in its narrow dtype: the
  table of j + 1 digits is p copies of the table of j digits.
- The matrix of y -> c y weights the powers of the companion matrix of
  the modulus by the digits of c.  Digit rows times such a matrix have
  entries below p, so every sum is at most m (p - 1)^2; the exp table's
  doubling (g^(k..2k-1) = g^(0..k-1) g^k) runs them as float BLAS
  products in the dtype limits.exact_float_dtype gives, and reduces them
  mod p by an exact floor (_reduce).
- The least primitive element is found by testing a batch of candidates
  at once, by one stacked integer square-and-multiply per prime factor f
  of p^m - 1 (c^k is row 0 of the k-th power of the matrix of c).
- A subfield GF(p^s) is embedded through the roots of its own modulus,
  looked for only among the p^s ranks of its copy, read off the exp
  table: 0 and the powers of w^((p^m - 1)/(p^s - 1)).  The least-rank
  image r of its generator g gives the map g^i -> r^i, which the trace
  matrix inverts at its m values alone, through the log table.
- The trace tables and dual_map are GF(p)-linear maps, so their tables are
  built from their matrices one input digit at a time, in integers.
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
from .limits import exact_float_dtype, exceeds, table_cap

# generator candidates tested per stacked matrix power
_BATCH = 16
# rows of the exp table's doubling product reduced at a time
_CHUNK = 4096


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


# -- polynomials over GF(p): coefficient lists, low degree first ---------

def _poly_rem(num, den, p):
    """num mod den over GF(p), with trailing zeros dropped ([] is 0)."""
    num, dd = [c % p for c in num], len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_rem(prod, f, p)


def _is_irreducible(coeffs, p) -> bool:
    """Ben-Or's form of Rabin's test (Rabin, SIAM J. Comput. 9, 1980): a
    monic f of degree m is irreducible over GF(p) iff x^(p^k) - x is prime
    to f for k = 1, ..., m // 2, since x^(p^k) - x is the product of the
    monic irreducibles of degree dividing k, and a reducible f has a factor
    of degree at most m / 2.  The commonest factors, of low degree, are
    found first."""
    f = list(coeffs)
    x = frob = _poly_rem([0, 1], f, p)
    for _ in range(1, (len(f) - 1) // 2 + 1):
        base, frob, e = frob, [1], p  # frob becomes x^(p^k) mod f
        while e:
            if e & 1:
                frob = _poly_mulmod(frob, base, f, p)
            base, e = _poly_mulmod(base, base, f, p), e >> 1
        a, b = f, _poly_rem([u - v for u, v in itertools.zip_longest(frob, x, fillvalue=0)], f, p)
        while b:
            a, b = b, _poly_rem(a, b, p)
        if len(a) > 1:
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
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, m={m}")


def _monic(modulus, p: int, m: int) -> tuple[int, ...]:
    """modulus as ints mod p, each coefficient checked by the integer rule;
    ValueError unless it is monic of degree m."""
    modulus = tuple(int(_check_integer(c, "modulus coefficient")) % p for c in modulus)
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree m")
    return modulus


class Field:
    """GF(p^m) with its digit and exp/log tables held as numpy arrays;
    immutable after construction.  Arithmetic works elementwise on rank
    arrays; int arguments give int results."""

    def __init__(self, p: int, m: int, modulus=None):
        p, m = int(_check_integer(p, "p")), int(_check_integer(m, "m"))
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # the size test comes first, so that outsized input costs no work
        if p > 1 and exceeds(p, m, table_cap()):
            raise SizeGuard(f"GF({p}^{m}) exceeds the explicit-table cap {table_cap()}")
        if not is_prime(p) or p == 2:
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = _monic(modulus, p, m)
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.size = p ** m
        self._powers = p ** np.arange(m, dtype=np.int64)
        # digits[r] = polynomial-basis coefficients of rank r, in the
        # narrowest dtype that holds the sum of two digits; the table of the
        # first j + 1 digits is p copies of that of the first j, the copy d
        # with digit j set to d
        self._digits = np.zeros((self.size, m), dtype=np.min_scalar_type(2 * p - 2))
        for j in range(m):
            block = self._digits[: p ** (j + 1)].reshape(p, p ** j, m)
            block[1:, :, :j] = block[0, :, :j]
            block[:, :, j] = np.arange(p)[:, None]
        self._generator = self._least_primitive()
        self._exp = self._powers_of(self._generator)
        self._log = np.zeros(self.size, dtype=np.int64)
        self._log[self._exp] = np.arange(self.size - 1)

    # -- construction internals ------------------------------------------

    def _mul_matrices(self, c) -> np.ndarray:
        """M[i] with digits(c[i] y) = digits(y) @ M[i] mod p, for a rank or
        rank array c: the digits of c[i] weight the powers of the matrix of
        y -> x y.  Floats of the exact dtype of digit-row products."""
        p, m = self.p, self.m
        dtype = exact_float_dtype(4 * m * (p - 1) ** 2)  # see _reduce
        shift = np.eye(m, k=1, dtype=dtype)  # y -> x y, with x^m reduced below
        shift[-1] = np.negative(self.modulus[:m]) % p
        x_pows = [np.eye(m, dtype=dtype)]
        for _ in range(m - 1):
            x_pows.append(x_pows[-1] @ shift % p)
        weights = self._digits[np.atleast_1d(c)].astype(dtype)
        return (weights @ np.reshape(x_pows, (m, m * m)) % p).reshape(-1, m, m)

    def _least_primitive(self) -> int:
        """The least rank c of order q - 1, _BATCH candidates at a time:
        c^((q-1)/f) != 1 for every prime f | q - 1.  Constants have order
        dividing p - 1, so for m > 1 the search starts at x, rank p."""
        p, q1 = self.p, self.size - 1
        exponents = [q1 // f for f in _prime_factors(q1)]
        for start in range(2 if self.m == 1 else p, self.size, _BATCH):
            c = np.arange(start, min(start + _BATCH, self.size))
            square = self._mul_matrices(c).astype(np.int64)
            one = np.eye(self.m, dtype=square.dtype)[0]
            rows = np.tile(one, (len(exponents), len(c), 1))  # rows[i] = c^exponents[i]
            bit = 1
            while bit <= q1 // 2:
                for i, e in enumerate(exponents):
                    if e & bit:
                        rows[i] = (rows[i][:, None] @ square)[:, 0] % p
                square, bit = square @ square % p, bit << 1
            primitive = (rows != one).any(axis=2).all(axis=0)
            if primitive.any():
                return int(c[primitive.argmax()])

    def _powers_of(self, g: int) -> np.ndarray:
        """Ranks of g^0, ..., g^{q-2} by doubling: the block g^{k..2k-1} is the
        block g^{0..k-1} times g^k, taken _CHUNK rows at a time so that
        _reduce runs in cache."""
        p, q1 = self.p, self.size - 1
        step = self._mul_matrices(g)[0]
        digits = np.zeros((q1, self.m), dtype=step.dtype)
        digits[0, 0] = 1
        scratch = np.empty((_CHUNK, self.m), dtype=step.dtype)
        k = 1
        while k < q1:
            n = min(k, q1 - k)
            for lo in range(0, n, _CHUNK):
                block = digits[k + lo : k + min(lo + _CHUNK, n)]
                np.matmul(digits[lo : lo + len(block)], step, out=block)
                _reduce(block, p, scratch[: len(block)])
            step, k = step @ step % p, k + n
        # ranks are below q, exact in the dtype that bound gives
        return (digits @ self._powers.astype(exact_float_dtype(q1))).astype(np.int64)

    def _linear_table(self, A) -> np.ndarray:
        """Ranks of digits(y) @ A mod p at every rank y, for an integer
        matrix A with m rows.  Per output digit, rank d p^j + r maps to
        d A[j] plus the image of r, so the table grows p-fold per input
        digit, as space._compose's do; its sums, at most m (p - 1), are
        reduced once."""
        p, d = self.p, np.arange(self.p)
        out = np.zeros(self.size, dtype=np.int64)
        for column in np.asarray(A, dtype=np.int64).T[::-1] % p:  # most significant first
            t = np.zeros(1, dtype=np.min_scalar_type(self.m * (p - 1)))
            for a in column:
                t = ((d * a % p).astype(t.dtype)[:, None] + t).reshape(-1)
            out *= p
            out += t % p
        return out

    def _rank(self, digits):
        return _ranks_out(digits @ self._powers)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return self._rank((self._digits[a] + self._digits[b]) % self.p)

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
        canonical GF(p^k); requires an integer k | m, which subfield(k) checks."""
        return _ranks_out(self._trace_table(int(_check_integer(k, "subfield degree")))[a])

    def _trace_matrix(self, k: int) -> np.ndarray:
        """Row j holds the canonical GF(p^k) digits of Tr_k^m(x^j), the
        Frobenius sum taken on the m basis elements alone.  A nonzero sum is
        z = r^i, r the image of the generator under subfield(k); every log
        on the copy is a multiple of d = (p^m - 1) / (p^k - 1), so i is
        (log z / d) (log r / d)^-1 mod p^k - 1."""
        sub, embed = self.subfield(k)
        total = conj = self._powers  # the ranks of 1, x, ..., x^(m-1)
        for _ in range(self.m // k - 1):
            conj = self.pow(conj, self.p ** k)
            total = self.add(total, conj)
        q1 = sub.size - 1
        d, r = (self.size - 1) // q1, embed[sub.primitive_element]
        i = self._log[total] // d * pow(int(self._log[r]) // d, -1, q1) % q1
        return sub._digits[np.where(total == 0, 0, sub._exp[i])]

    @lru_cache(maxsize=None)
    def _trace_table(self, k: int) -> np.ndarray:
        # Tr_k^m is GF(p)-linear, Tr(y) = sum_j y_j Tr(x^j) over the digits y_j
        return self._linear_table(self._trace_matrix(k))

    @cached_property
    def dual_map(self) -> np.ndarray:
        """dual_map[a] = the rank u with Tr_1^m(a y) = sum_j u_j y_j for all
        y (digitwise mod p): u packs the digits (Tr_1^m(a x^j))_j.  On GF(p)
        it is the identity.  a -> u is GF(p)-linear, with Tr_1^m(x^i x^j)
        in row i, column j of its matrix."""
        basis = self._powers
        products = self._digits[self.mul(basis[:, None], basis)].astype(np.int64)
        return self._linear_table((products @ self._trace_matrix(1).astype(np.int64))[..., 0])

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

    def subfield(self, s: int):
        """Canonical copy of GF(p^s) inside this field, s | m, as (subfield,
        embed): embed[r] is the image here of the canonical GF(p^s) rank r,
        a read-only int64 array.  Each root rho of GF(p^s)'s modulus gives
        one embedding, x -> rho; the images of the canonical generator g
        under these are exactly the roots of g's minimal polynomial, so g
        goes to its least-rank root r."""
        return self._subfield(int(_check_integer(s, "subfield degree")))

    @lru_cache(maxsize=None)
    def _subfield(self, s: int):
        if s < 1:
            raise ValueError(f"subfield degree must be >= 1, got {s}")
        if self.m % s != 0:
            raise NotADivisor(f"{s} does not divide {self.m}")
        if s == self.m:
            # a field is its own canonical degree-m subfield copy
            embed = np.arange(self.size, dtype=np.int64)
            embed.flags.writeable = False
            return self, embed
        sub, q1 = canonical_field(self.p, s), self.size - 1
        # the copy of GF(p^s): 0 and the powers of w^((p^m - 1)/(p^s - 1))
        copy = np.append(0, self._exp[:: q1 // (sub.size - 1)])
        values = 0  # the modulus on the copy by Horner; GF(p) ranks carry over
        for c in reversed(sub.modulus):
            values = self.add(self.mul(values, copy), c)
        roots = copy[values == 0]
        images = 0  # sum_j g_j rho^j over the digits g_j of g, at every root
        for j, c in enumerate(sub._digits[sub.primitive_element].tolist()):
            images = self.add(images, self.mul(c, self.pow(roots, j)))
        r = int(images.min())
        embed = np.zeros(sub.size, dtype=np.int64)
        embed[sub._exp] = self._exp[self._log[r] * np.arange(sub.size - 1) % q1]
        embed.flags.writeable = False
        return sub, embed

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
        """The inverse of to_dict: the cached canonical_field(p, m) when the
        modulus is its own, so a reader builds each field once per process."""
        field = canonical_field(d["p"], d["m"])
        modulus = _monic(d["modulus"], field.p, field.m)
        return field if modulus == field.modulus else cls(field.p, field.m, modulus)


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


def _reduce(v: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """v mod p in place, for a float array of integers below 2^22 (float32)
    or 2^51 (float64), the bounds that exact_float_dtype(4 v) keeps to.
    (v + 1/2) / p lies at least 1/(2p) from an integer, and fl(fl(v + 1/2)
    fl(1/p)) is within (v + 1/2) / p times 2^-23 (2^-52) of it, which is
    less, so its floor is the quotient and v - p floor(...) is exact.
    np.remainder on float32 took about 30 times as long."""
    np.add(v, 0.5, out=scratch)
    scratch *= 1 / p
    np.floor(scratch, out=scratch)
    scratch *= p
    v -= scratch


def _ranks_out(r):
    """Rank arrays pass through; a single rank comes back as an int."""
    return r if isinstance(r, np.ndarray) and r.ndim else int(r)


@dataclass(frozen=True, eq=False)
class CosetSet:
    """beta * H_l inside a field's multiplicative group, as a mask on ranks."""

    mask: np.ndarray

    @property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())


def canonical_field(p: int, m: int) -> Field:
    """The GF(p^m) with the auto-selected modulus; cached per (p, m), which
    pass the integer rule first, so that 3.0 or True never reach the cache."""
    return _canonical_field(int(_check_integer(p, "p")), int(_check_integer(m, "m")))


_canonical_field = lru_cache(maxsize=None)(Field)
