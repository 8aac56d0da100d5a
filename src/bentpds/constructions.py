"""Explicit vectorial dual-bent families, emitted as lookup tables together
with the claimed dual, the claimed component permutation sigma, and (where
the family states one) the claimed per-component regularity sign.

Every constructor returns a ConstructedPair whose claims are meant to be
re-derived independently by spectral.dual_bent_certificate; the claims are
inputs to verification, never a substitute for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BadExponent,
    NotADivisor,
    NotPermutation,
    SizeGuard,
    UnbalancedLabeling,
    ZeroArgument,
    ZeroCoefficient,
)
from .field import Field, _check_integer, canonical_field
from .limits import exceeds, table_cap
from .space import Space
from .spectral import VectorialFunction, rank_dtype


@dataclass
class ConstructedPair:
    family: str
    function: VectorialFunction
    dual: VectorialFunction
    sigma: dict[int, int]
    epsilons: dict[int, int] | None
    params: dict = dc_field(default_factory=dict)


def _check_shape(p: int, s: int, *degrees: int) -> None:
    """Reject the codomain degree s and the domain factor degrees before any
    table is built; the domain has p^(sum of degrees) points.  The fields
    built next reject a p that is not an odd prime."""
    if min(s, *degrees) < 1:
        raise ValueError("extension degrees must be >= 1")
    if p > 1 and exceeds(p, sum(degrees), table_cap()):
        raise SizeGuard(f"p^{sum(degrees)} points exceed the table cap {table_cap()}")


def _epsilon_sign(p: int, dim: int, minus_one_exp: int, eps_exp: int, eta: int) -> int:
    """Sign of (-1)^{minus_one_exp} eps^{eps_exp} eta with eps = sqrt(-1)
    for p = 3 mod 4 (else 1), normalised to the classification convention:
    for odd dim one factor of eps is absorbed into the Gauss sum."""
    e = 1 if p % 4 == 3 else 0
    exp_i = 2 * minus_one_exp + e * eps_exp + (0 if eta == 1 else 2)
    exp_i -= e * (dim % 2)
    exp_i %= 4
    if exp_i not in (0, 2):
        raise AssertionError("epsilon claim is not real after normalisation")
    return 1 if exp_i == 0 else -1


def _pair(family: str, dom: Space, sub: Field, table: np.ndarray, dual: np.ndarray,
          u: int, sign, params: dict) -> ConstructedPair:
    """The bundle of F and its dual, given as tables over dom with values in
    sub, claiming sigma(c) = c^{-u} and, unless sign is None (no claim), the
    component sign sign(c)."""
    units = range(1, sub.size)
    return ConstructedPair(
        family,
        VectorialFunction(dom, sub, table.ravel()),
        VectorialFunction(dom, sub, dual.ravel()),
        {c: sub.pow(c, -u) for c in units},
        None if sign is None else {c: sign(c) for c in units},
        params,
    )


def _check_a(F: Field, a: int) -> None:
    if F.check_rank(a, "a") == 0:
        raise ZeroArgument("coefficient a must be nonzero")


# Grid entries _mm_block evaluates at a time, so that its int64
# temporaries hold this many entries rather than q^2: every grid up to
# q = 1024 is one block.
MM_BLOCK_ENTRIES = 1 << 20


def _mm_block(F: Field, s: int, a: int, perm, perm_inv) -> tuple[np.ndarray, np.ndarray]:
    """Tr_s^m(a x pi(y)) and its dual Tr_s^m(-pi^{-1}(a^{-1} x) y) on GF(p^m)^2,
    as (q, q) arrays [y, x] in rank_dtype(p^s), filled a block of y rows
    at a time."""
    x = np.arange(F.size)
    a_pi, dual_x = F.mul(a, perm), F.neg(perm_inv[F.mul(F.inv(a), x)])
    table, dual = (np.empty((F.size, F.size), dtype=rank_dtype(F.p ** s)) for _ in range(2))
    rows = max(1, MM_BLOCK_ENTRIES // F.size)
    for y in range(0, F.size, rows):
        ys = x[y : y + rows, None]
        table[y : y + rows] = F.trace(s, F.mul(a_pi[ys], x))
        dual[y : y + rows] = F.trace(s, F.mul(dual_x, ys))
    return table, dual


def _qpoly_tables(F: Field, s: int, coeffs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """L(y) = sum_i coeffs[i] y^{q^i} over GF(p^m), q = p^s, a GF(p^s)-linear
    map by construction, and its inverse, as tables over every y."""
    if F.m % s != 0:
        raise NotADivisor(f"{s} does not divide {F.m}")
    for c in coeffs:
        F.check_rank(c, "q-polynomial coefficient")
    y = np.arange(F.size)
    table, power = np.zeros_like(y), y
    for c in coeffs:
        table = F.add(table, F.mul(c, power))
        power = F.pow(power, F.p ** s)
    if not np.array_equal(np.sort(table), y):
        raise NotPermutation("q-polynomial does not permute the field")
    inv = np.empty_like(table)
    inv[table] = y
    return table, inv


def _quad_block(F: Field, s: int, c: int) -> np.ndarray:
    """Tr_s^n(c x^2) over every x in GF(p^n)."""
    x = np.arange(F.size)
    return F.trace(s, F.mul(c, F.mul(x, x)))


def _quad_dual(F: Field, a: int) -> int:
    """-(4a)^{-1}, the coefficient of the dual of a x^2."""
    return F.neg(F.inv(F.mul(4 % F.p, a)))


def _quad_sign(F: Field, s: int, coeffs: list[int], dim: int):
    """The sign rule c -> (-1)^{k(n-1)} eps^{kn} prod_i eta_n(a_i c) of the
    components of sum_i Tr_s^n(a_i x_i^2) over the k coefficients a_i,
    n = F.m, inside a function on a dim-dimensional domain."""
    _, embed = F.subfield(s)
    n, k = F.m, len(coeffs)
    return lambda c: _epsilon_sign(F.p, dim, k * (n - 1), k * n, math.prod(
        F.quadratic_character(F.mul(a, embed[c])) for a in coeffs))


def _quad_form(family: str, F: Field, s: int, coeffs: list[int], params: dict) -> ConstructedPair:
    """sum_i Tr_s^n(a_i x_i^2) on GF(p^n)^k, n = F.m, and its dual
    sum_i Tr_s^n(-x_i^2 / (4 a_i)), folded as a direct sum in which factor i
    sits above factors 0..i-1; sigma(c) = c^{-1}."""
    sub = canonical_field(F.p, s)

    def fold(cs):
        acc = _quad_block(F, s, cs[0])
        for c in cs[1:]:
            acc = sub.add(_quad_block(F, s, c)[:, None], acc).ravel()
        return acc

    return _pair(family, Space([F] * len(coeffs)), sub, fold(coeffs),
                 fold([_quad_dual(F, a) for a in coeffs]), 1,
                 _quad_sign(F, s, coeffs, len(coeffs) * F.m), params)


# ---------------------------------------------------------------------------
# Maiorana-McFarland families on GF(p^m) x GF(p^m)
# ---------------------------------------------------------------------------

def mm_power(p: int, m: int, s: int, a: int, e: int) -> ConstructedPair:
    """F(x, y) = Tr_s^m(a x y^e) with gcd(e, p^m - 1) = 1.

    Dual Tr_s^m(-a^{-u} x^u y) with e u = 1 mod p^m - 1; sigma(c) = c^{-u};
    every component is regular.
    """
    _check_shape(p, s, m, m)
    F = canonical_field(p, m)
    if m % s != 0:
        raise NotADivisor(f"{s} does not divide {m}")
    _check_a(F, a)
    q, e = F.size, int(_check_integer(e, "e"))
    if e < 0:  # gcd(e, q - 1) = 1 holds for e = -1, but 0^e is undefined
        raise BadExponent(f"e = {e} must be non-negative")
    if math.gcd(e, q - 1) != 1:
        raise BadExponent(f"gcd({e}, {q - 1}) != 1")
    u = pow(e, -1, q - 1)
    y = np.arange(q)
    table, dual = _mm_block(F, s, a, F.pow(y, e), F.pow(y, u))
    return _pair("mm-power", Space([F, F]), canonical_field(p, s), table, dual, u,
                 lambda c: 1, {"p": p, "m": m, "s": s, "a": a, "e": e})


def mm_qpoly(p: int, m: int, s: int, a: int, l_coeffs) -> ConstructedPair:
    """F(x, y) = Tr_s^m(a x L(y)) for a permutation q-polynomial L.

    Dual Tr_s^m(-L^{-1}(a^{-1} x) y); sigma(c) = c^{-1}; components regular.
    """
    _check_shape(p, s, m, m)
    F = canonical_field(p, m)
    _check_a(F, a)
    l_coeffs = [int(_check_integer(c, "q-polynomial coefficient")) for c in l_coeffs]
    table, dual = _mm_block(F, s, a, *_qpoly_tables(F, s, l_coeffs))
    return _pair("mm-qpoly", Space([F, F]), canonical_field(p, s), table, dual, 1,
                 lambda c: 1, {"p": p, "m": m, "s": s, "a": a, "l_coeffs": l_coeffs})


# ---------------------------------------------------------------------------
# quadratic families
# ---------------------------------------------------------------------------

def quad_trace(p: int, n: int, s: int, a: int) -> ConstructedPair:
    """F(x) = Tr_s^n(a x^2) on GF(p^n).

    Dual Tr_s^n(-x^2 / (4a)); sigma(c) = c^{-1}; component sign
    (-1)^{n-1} eps^n eta_n(a c).
    """
    _check_shape(p, s, n)
    F = canonical_field(p, n)
    if n % s != 0:
        raise NotADivisor(f"{s} does not divide {n}")
    _check_a(F, a)
    return _quad_form("quad-trace", F, s, [a], {"p": p, "n": n, "s": s, "a": a})


def diag_quad(p: int, s: int, m: int, coeffs) -> ConstructedPair:
    """G(x_1, ..., x_m) = a_1 x_1^2 + ... + a_m x_m^2 on GF(p^s)^m.

    Dual -x_1^2/(4a_1) - ... - x_m^2/(4a_m); sigma(c) = c^{-1}; component
    sign (-1)^{(s-1)m} eps^{sm} eta_s(c^m a_1 ... a_m).
    """
    _check_shape(p, s, s * m)
    sub = canonical_field(p, s)
    coeffs = [int(sub.check_rank(c, "coefficient")) for c in coeffs]
    if len(coeffs) != m:
        raise ValueError(f"need {m} coefficients")
    if any(c == 0 for c in coeffs):
        raise ZeroCoefficient("diagonal coefficients must be nonzero")
    return _quad_form("diag-quad", sub, s, coeffs, {"p": p, "s": s, "m": m, "coeffs": coeffs})


# ---------------------------------------------------------------------------
# partial-spread family
# ---------------------------------------------------------------------------

def regular_spread(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The regular spread of GF(p^m) x GF(p^m) as (line, perp) rank arrays.
    Line 0 is {0} x F and line 1 + a is {(x, ax)}, in rank order of a.
    line[z] is the line through the point z = x + p^m y (line 0 for z = 0,
    which lies on every line); perp[i] is the orthogonal complement of line
    i under Tr(z1 x1 + z2 x2).  The p^{2m} points must be within the table
    cap, checked before anything is built."""
    _check_shape(p, 1, m, m)  # no codomain: s = 1 passes
    F = canonical_field(p, m)
    q = F.size
    y, x = np.divmod(np.arange(q * q), q)
    # a = y x^{q-2} = y / x off the line x = 0
    line = np.where(x == 0, 0, 1 + F.mul(y, F.pow(x, q - 2)))
    # the infinity line and the a = 0 line swap; {(x, ax)} pairs with
    # {(x, -a^{-1} x)}
    perp = np.concatenate(([1, 0], 1 + F.neg(F.inv(np.arange(1, q)))))
    return line, perp


def spread_bent(p: int, m: int, s: int, labeling=None, gamma0: int = 0) -> ConstructedPair:
    """Vectorial partial-spread function on the regular spread: constant on
    each punctured line, balanced over the p^m non-distinguished lines.

    The dual carries the same labels moved to the orthogonal-complement
    lines; sigma is the identity and every component is regular.
    """
    _check_shape(p, s, m, m)
    if s > m:
        raise ValueError("s must not exceed m")
    sub = canonical_field(p, s)
    line, perp = regular_spread(p, m)
    q = p ** m
    if labeling is None:
        labeling = [r % sub.size for r in range(q)]
    labeling = [int(sub.check_rank(v, "label")) for v in labeling]
    if len(labeling) != q:
        raise UnbalancedLabeling(f"labeling must assign all {q} lines")
    gamma0 = int(sub.check_rank(gamma0, "gamma0"))
    labels = np.array([gamma0] + labeling)
    per_value = q // sub.size
    if (np.bincount(labeling, minlength=sub.size) != per_value).any():
        raise UnbalancedLabeling(f"labeling must hit every value exactly {per_value} times")
    F = canonical_field(p, m)
    dual = labels[perp[line]]
    dual[0] = labels[0]
    return _pair("spread", Space([F, F]), sub, labels[line], dual, -1, lambda c: 1,
                 {"p": p, "m": m, "s": s, "labeling": labeling, "gamma0": gamma0})


# ---------------------------------------------------------------------------
# the three-block construction
# ---------------------------------------------------------------------------

def branched_quad_mm(
    p: int,
    n: int,
    m: int,
    s: int,
    alpha1: int,
    alpha2: int,
    alpha3: int,
    beta: int,
    gamma: int,
    l_coeffs=(1,),
) -> ConstructedPair:
    """H(x, y1, y2) on GF(p^n) x GF(p^m) x GF(p^m):

        H = Tr_s^n(alpha_b x^2) + Tr_s^m(beta y1 L(y2)),

    where the branch b is alpha1 / alpha2 / alpha3 according to whether
    Tr_s^m(gamma y2^2) is zero / a square / a non-square.  The dual swaps
    the roles of y1 and y2 through L^{-1} and replaces each alpha by
    -(4 alpha)^{-1}; sigma(c) = c^{-1}.

    gamma is accepted anywhere in GF(p^m)^*; the square/non-square branch is
    taken on the selector value inside GF(p^s).
    """
    _check_shape(p, s, n, m, m)
    if n % s != 0 or m % s != 0:
        raise NotADivisor(f"{s} must divide both {n} and {m}")
    Fn = canonical_field(p, n)
    Fm = canonical_field(p, m)
    for name, v in (("alpha1", alpha1), ("alpha2", alpha2), ("alpha3", alpha3)):
        if Fn.check_rank(v, name) == 0:
            raise ZeroArgument(f"{name} must be nonzero")
    if Fm.check_rank(beta, "beta") == 0 or Fm.check_rank(gamma, "gamma") == 0:
        raise ZeroArgument("beta and gamma must be nonzero")
    sub = canonical_field(p, s)
    l_coeffs = [int(_check_integer(c, "q-polynomial coefficient")) for c in l_coeffs]
    L, linv = _qpoly_tables(Fm, s, l_coeffs)
    # branch index per y2: 0 / 1 / 2 for Tr_s^m(gamma y2^2) zero / square / non-square
    sel = 1 + sub.log_residue(_quad_block(Fm, s, gamma), 2)
    alphas = (alpha1, alpha2, alpha3)
    xb = np.stack([_quad_block(Fn, s, a) for a in alphas])
    xb_star = np.stack([_quad_block(Fn, s, _quad_dual(Fn, a)) for a in alphas])
    # g[y2, y1] = Tr_s^m(beta y1 L(y2)), gstar[y2, y1] = -Tr_s^m(w y2) with
    # w = L^{-1}(beta^{-1} y1), the point whose branch the dual takes
    g, gstar = _mm_block(Fm, s, beta, L, linv)
    sel_star = sel[linv[Fm.mul(Fm.inv(beta), np.arange(Fm.size))]]
    # point ranks run x fastest, then y1, then y2
    table = sub.add(g[:, :, None], xb[sel][:, None, :])
    dual = sub.add(gstar[:, :, None], xb_star[sel_star][None, :, :])
    # mixed branch characters: components are bent but not weakly regular
    uniform = len({Fn.quadratic_character(a) for a in alphas}) == 1
    return _pair(
        "branched-quad-mm", Space([Fn, Fm, Fm]), sub, table, dual, 1,
        _quad_sign(Fn, s, [alpha1], n + 2 * m) if uniform else None,
        {
            "p": p,
            "n": n,
            "m": m,
            "s": s,
            "alphas": list(alphas),
            "beta": beta,
            "gamma": gamma,
            "l_coeffs": l_coeffs,
        },
    )
