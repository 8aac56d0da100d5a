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
through the cached _scaling tables; gather_mul (x -> (c_i x_i), one c_i in
each factor's field, which mixes an extension factor's digits) once per
factor with c_i != 1, through that factor's table of q_i ranks, built per
call by Field.mul.  negate (x -> -x) maps ranks, one or an array, through
the same two _scaling tables at -1.  None of them builds a whole-space map
beyond what one factor spans, and a Space keeps no table of its points;
like every table shared between calls, the _scaling tables are read-only.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import Field, _check_integer, _integer_entries, canonical_field


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

    def check_ranks(self, x) -> np.ndarray:
        """x as an array, one rank or many, each checked to be a rank."""
        x = np.asarray(x)
        if not _integer_entries(x):  # 1.5, True, '1' and ints past int64
            raise ValueError(f"rank = {x} must be an integer")
        low, high = x.min(initial=0), x.max(initial=0)
        if low < 0 or high >= self.size:
            raise ValueError(f"rank = {low or high} must be a rank in [0, {self.size})")
        return x

    def negate(self, x):
        """-x, as an int for one rank and as an int64 array for an array of
        ranks: -1 scales every digit, so each half of the split
        r = hi p^low_digits + lo goes through its _scaling table."""
        p, low, x = self.p, self.low_digits, self.check_ranks(x)
        hi = x // p ** low
        neg = _scaling(p, self.dim - low, p - 1)[hi] * p ** low
        neg += _scaling(p, low, p - 1)[x - hi * p ** low]
        return neg if x.ndim else int(neg)

    def gather_scaled(self, values: np.ndarray, c: int) -> np.ndarray:
        """values[c x] at every x, for an integer c (field._check_integer)
        read mod p and an array whose first axis runs over the space: the
        _scaling table of each half."""
        p, low, c = self.p, self.low_digits, int(_check_integer(c, "multiplier")) % self.p
        halves = ((low, 1), (self.dim - low, p ** low))
        return self._gather(values, [(_scaling(p, w, c), shift) for w, shift in halves])

    def gather_mul(self, values: np.ndarray, cs) -> np.ndarray:
        """values[(c_0 x_0, ..., c_k x_k)] at every x, for one rank c_i of
        each factor's field and an array whose first axis runs over the
        space: one np.take per factor with c_i != 1, through its table of
        x -> c_i x.  One c in GF(p) on every factor scales every digit, and
        gather_scaled takes it in two halves instead."""
        cs = [f.check_rank(c, "multiplier") for f, c in zip(self.factors, cs, strict=True)]
        maps = zip(self.factors, cs, self._shifts)
        return self._gather(values, [(f.mul(c, np.arange(f.size)), shift)
                                     for f, c, shift in maps if c != 1])

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
