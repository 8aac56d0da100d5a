"""Finite vector spaces assembled from field factors.

A point of V_n = F_1 x ... x F_k is an integer rank in [0, p^n); factor 0
occupies the least-significant base-p digits, and within a factor the digits
are the polynomial-basis coefficients.  The base-p digits of a rank therefore
double as the GF(p)-coordinates of the point, which is what the radix-p
transform relies on.

The inner product follows the usual convention: plain product on GF(p)
factors, Tr_1^m(a b) on extension factors, summed mod p.  The whole-space
maps x -> -x, x -> c x and a -> dual(a) are built once per space as rank
arrays, by composing a map on each digit (scaling) or on each factor (the
dual) in O(N), with no division pass over the N ranks.  gather_dual
reorders an array by the dual one factor at a time, with no whole-space
map.  The scalar rank methods (split, join, digits, inner_product) stay per
point for the oracles.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .field import Field, canonical_field


class Space:
    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a space needs at least one factor")
        p = factors[0].p
        if any(f.p != p for f in factors):
            raise ValueError("all factors must share the same characteristic")
        self.p = p
        self.factors = factors
        self.dim = sum(f.m for f in factors)
        self.size = p ** self.dim
        self._blocks = [f.size for f in factors]
        # digit offset of each factor inside the global rank
        self._shifts = []
        acc = 1
        for f in factors:
            self._shifts.append(acc)
            acc *= f.size
        self._scaled = {}

    # -- rank <-> coordinates ------------------------------------------------

    def split(self, rank: int) -> tuple[int, ...]:
        out = []
        for b in self._blocks:
            rank, r = divmod(rank, b)
            out.append(r)
        return tuple(out)

    def join(self, parts) -> int:
        rank = 0
        for part, shift in zip(parts, self._shifts):
            rank += part * shift
        return rank

    def digits(self, rank: int) -> tuple[int, ...]:
        p, out = self.p, []
        for _ in range(self.dim):
            rank, d = divmod(rank, p)
            out.append(d)
        return tuple(out)

    def from_digits(self, digits) -> int:
        rank = 0
        for d in reversed(digits):
            rank = rank * self.p + d
        return rank

    # -- group and scalar structure -------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self.from_digits([(x + y) % p for x, y in zip(self.digits(a), self.digits(b))])

    def scaled(self, c: int) -> np.ndarray:
        """The permutation x -> c x of the whole space, as a rank array."""
        p = self.p
        c %= p
        if c not in self._scaled:
            self._scaled[c] = _compose([c * np.arange(p, dtype=np.int64) % p] * self.dim)
        return self._scaled[c]

    @property
    def neg(self) -> np.ndarray:
        """The permutation x -> -x of the whole space, as a rank array."""
        return self.scaled(self.p - 1)

    @cached_property
    def dual(self) -> np.ndarray:
        """dual[a] = the rank u with <a, x> = sum_k u_k x_k (digitwise mod p)
        for all x: Field.dual_map on each factor."""
        return _compose([f.dual_map for f in self.factors])

    def gather_dual(self, values: np.ndarray) -> np.ndarray:
        """values[self.dual] for a 1-D array over the space, by one np.take
        per extension factor, so no whole-space map is built; the dual is
        the identity on GF(p) factors, where values come back as they are."""
        for f, shift in zip(self.factors, self._shifts):
            if f.m > 1:
                values = np.take(values.reshape(-1, f.size, shift), f.dual_map, axis=1)
        return values.reshape(-1)

    def scalar_mul(self, c: int, x: int) -> int:
        return int(self.scaled(c)[x])

    def negate(self, x: int) -> int:
        return int(self.neg[x])

    def dual_rank(self, a: int) -> int:
        """Rank u with <a, x> = sum_k u_k x_k for all x (digitwise mod p)."""
        return int(self.dual[a])

    # -- inner product ---------------------------------------------------------

    def inner_product(self, a: int, b: int) -> int:
        total = 0
        for f, ra, rb in zip(self.factors, self.split(a), self.split(b)):
            if f.m == 1:
                total += ra * rb
            else:
                total += f.trace(1, f.mul(ra, rb))
        return total % self.p

    # -- plumbing ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Space) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Space({list(self.factors)})"

    def to_list(self) -> list:
        return [f.to_dict() for f in self.factors]

    @classmethod
    def from_list(cls, lst) -> "Space":
        return cls([Field.from_dict(d) for d in lst])


def _compose(blocks) -> np.ndarray:
    """The rank map that acts as blocks[i] on the i-th block of digits, least
    significant first: each block multiplies the table built so far by its
    size, so the cost is O(N) with no division pass over the N ranks."""
    perm = np.zeros(1, dtype=np.int64)
    for block in blocks:
        perm = (block[:, None] * perm.size + perm).ravel()
    return perm


@lru_cache(maxsize=None)
def prime_space(p: int, n: int) -> Space:
    """GF(p)^n as n one-dimensional factors."""
    return Space([canonical_field(p, 1)] * n)
