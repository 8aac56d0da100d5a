"""Finite vector spaces assembled from field factors.

A point of V_n = F_1 x ... x F_k is an integer rank in [0, p^n); factor 0
occupies the least-significant base-p digits, and within a factor the digits
are the polynomial-basis coefficients.  The base-p digits of a rank therefore
double as the GF(p)-coordinates of the point, which is what the radix-p
transform relies on.

The inner product follows the usual convention: plain product on GF(p)
factors, Tr_1^m(a b) on extension factors, summed mod p.  gather_dual
(a -> the rank u with <a, x> = sum_k u_k x_k) takes once per extension
factor, through Field.dual_map; gather_scaled (x -> c x, c in GF(p), which
scales every digit) once per half of the split r = hi p^low_digits + lo,
through the cached _scaling tables.  Neither builds a whole-space map.
Only x -> -x is kept as a rank array (neg), composed digit by digit in
O(N), because the verifiers gather sparse rank arrays through it.
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
        self.low_digits = (self.dim + 1) // 2  # the split r = hi p^low_digits + lo
        # digit offset of each factor inside the global rank
        self._shifts = []
        acc = 1
        for f in factors:
            self._shifts.append(acc)
            acc *= f.size

    # -- linear rank maps --------------------------------------------------------

    @cached_property
    def neg(self) -> np.ndarray:
        """The permutation x -> -x of the whole space, as a rank array."""
        return _compose([-np.arange(self.p, dtype=np.int64) % self.p] * self.dim)

    def negate(self, x: int) -> int:
        return int(self.neg[x])

    def gather_scaled(self, values: np.ndarray, c: int) -> np.ndarray:
        """values[c x] at every x, c read mod p, for an array whose first
        axis runs over the space: the _scaling table of each half."""
        p, low, c = self.p, self.low_digits, int(c) % self.p
        halves = ((low, 1), (self.dim - low, p ** low))
        return self._gather(values, [(_scaling(p, w, c), shift) for w, shift in halves])

    def gather_dual(self, values: np.ndarray) -> np.ndarray:
        """values[dual(a)] at every a, for an array whose first axis runs
        over the space; the dual is the identity on GF(p) factors, so a
        space of them alone gives values back as they are."""
        maps = zip(self.factors, self._shifts)
        return self._gather(values, [(f.dual_map, shift) for f, shift in maps if f.m > 1])

    def _gather(self, values: np.ndarray, maps) -> np.ndarray:
        """values reordered by the map that acts as perm on the perm.size
        ranks of the digits from place shift up, one np.take per (perm,
        shift) of maps over the first axis; other axes come along as is."""
        shape = values.shape
        if shape[0] != self.size:
            raise ValueError(f"the first axis has {shape[0]} entries, not {self.size}")
        for perm, shift in maps:
            values = np.take(values.reshape(-1, perm.size, shift, *shape[1:]), perm, axis=1)
        return values.reshape(shape)

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


def _compose(blocks, axes: int = 1) -> np.ndarray:
    """The rank map that acts as blocks[i] on the i-th digit, least
    significant first: each digit multiplies the table built so far by p, so
    the cost is O(N) with no division pass over the N ranks.  With axes = 2
    each block is a (p, p) table of two digits and the map an (N, N) table
    of two ranks, in O(N^2)."""
    perm = np.zeros((1,) * axes, dtype=np.int64)
    for block in blocks:
        p, q = block.shape[0], perm.shape[0]
        perm = block.reshape((p, 1) * axes) * q + perm.reshape((1, q) * axes)
        perm = perm.reshape((p * q,) * axes)
    return perm


@lru_cache(maxsize=None)
def _scaling(p: int, width: int, lam: int) -> np.ndarray:
    """x -> lam x on width base-p digits, as a rank array; at width 0 the
    one rank 0.  Shared between calls, so read-only."""
    perm = _compose([lam * np.arange(p, dtype=np.int64) % p] * width)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def prime_space(p: int, n: int) -> Space:
    """GF(p)^n as n one-dimensional factors."""
    return Space([canonical_field(p, 1)] * n)
