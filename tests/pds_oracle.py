"""Test-held scalar oracles for the preimage-set layer.

char_sum_preimage evaluates chi_u(D_i) point by point and through the
component-spectrum formula, one component transform per c.
char_sums_preimages does both for every (u, i) at once: the direct sums
count the exponents of E = (U X^T) mod p over the digits of every x and of
every dual_rank(u), and char_sum_preimage is its oracle on small spaces.
sigma_predicates_by_sets decides the sigma conditions by comparing the
cosets of H_l = { x^l : x != 0 } as Python sets, and power_map_exponent
finds a power map c -> c^{-t} by trying every t.  preimage_ranks lists a
preimage point by point, and pair_counts counts the ordered pairs of a set
by difference, subtracting whole digit vectors.  None of them shares code with the library's array
routes beyond the field and space arithmetic, so each can be compared with
its library counterpart field by field.
"""
import math

import numpy as np

from bentpds.errors import FormulaMismatch, NotBijection
from bentpds.pds import SigmaReport
from bentpds.spectral import component, walsh_full
from ring_oracle import RingInt
from space_oracle import digits, dual_rank, inner_product, negate, negate_ranks


def preimage_ranks(F, values, exclude_zero_point=True) -> list[int]:
    """{ x : F(x) in values } in ascending order, one point at a time."""
    values = set(values)
    return [x for x in range(F.domain.size)
            if int(F.table[x]) in values and not (exclude_zero_point and x == 0)]


def pair_counts(sp, members) -> np.ndarray:
    """counts[g] = #{(x, y) in D^2 : x - y = g} for every rank g, one x at a
    time against all of D: the digits of x - y are those of x minus those
    of y mod p (space_oracle.digits), least significant first."""
    p = sp.p
    D = np.array([digits(sp, int(x)) for x in members], dtype=np.int64).reshape(-1, sp.dim)
    place = p ** np.arange(sp.dim, dtype=np.int64)
    counts = np.zeros(sp.size, dtype=np.int64)
    for x in D:
        counts += np.bincount((x - D) % p @ place, minlength=sp.size)
    return counts


def component_spectra(F):
    return {c: walsh_full(component(F, c)) for c in range(1, F.codomain.size)}


def char_sum_preimage(F, u: int, i: int, spectra=None) -> RingInt:
    """chi_u(D_i) for D_i = { x : F(x) = i } (zero point included), computed
    directly and through the component-spectrum formula

        chi_u(D_i) = p^{n-s} [u=0] + p^{-s} sum_c W_{F_c}(-u) zeta^{-<c,i>},

    asserting the two agree before returning the value."""
    sp, p = F.domain, F.p
    cod = F.codomain
    direct_counts = [0] * p
    for x in np.nonzero(F.table == i)[0]:
        direct_counts[inner_product(sp, u, int(x))] += 1
    direct = RingInt.from_exponent_counts(p, direct_counts)

    if spectra is None:
        spectra = component_spectra(F)
    tr1 = cod.trace(1, np.arange(cod.size))
    minus_u = negate(sp, u)
    total = RingInt.zero(p)
    for c in range(1, cod.size):
        phase = RingInt.zeta_pow(p, -tr1[cod.mul(c, i)])
        total = total + spectra[c][minus_u] * phase
    if u == 0:
        # the c = 0 term of the character expansion, before the p^{-s} division
        total = total + RingInt.from_int(p, p ** sp.dim)
    if any(c % cod.size for c in total.coeffs):
        raise FormulaMismatch("p^{-s} division is not exact")
    formula = RingInt(p, [c // cod.size for c in total.coeffs])
    if formula != direct:
        raise FormulaMismatch(
            f"character-sum formula disagrees with the direct sum at u={u}, i={i}"
        )
    return direct


def char_sums_preimages(F, spectra=None) -> np.ndarray:
    """chi_u(D_i) at every u and i as (p^n, q, p - 1) coefficient rows,
    computed directly and through char_sum_preimage's component-spectrum
    formula, asserting the two agree at every (u, i).  Row u of
    E = (U X^T) mod p holds <u, x> for every x (X: the digits of x, U:
    those of dual_rank(u)); for each i one np.bincount counts the row's
    exponents over the x with F(x) = i."""
    sp, cod, p = F.domain, F.codomain, F.p
    N, q = sp.size, cod.size
    X = np.array([digits(sp, x) for x in range(N)], dtype=np.int64).reshape(N, sp.dim)
    U = np.array([digits(sp, dual_rank(sp, u)) for u in range(N)],
                 dtype=np.int64).reshape(N, sp.dim)
    E = (U @ X.T) % p + p * np.arange(N)[:, None]  # offset so one bincount bins row by row
    if spectra is None:
        spectra = component_spectra(F)
    # W_{F_c}(-u) for c = 1 .. q - 1 as exponent counts, none at zeta^{p-1}
    minus_u = negate_ranks(sp, np.arange(N))
    W = np.stack([np.pad(spectra[c].coeff_rows[minus_u], ((0, 0), (0, 1)))
                  for c in range(1, q)])
    tr1 = cod.trace(1, np.arange(q))
    out = np.empty((N, q, p - 1), dtype=np.int64)
    for i in range(q):
        direct = np.bincount(E[:, F.table == i].ravel(), minlength=N * p).reshape(N, p)
        # times zeta^{-Tr(c i)}: the count at exponent j + Tr(c i) moves to j
        shift = (np.arange(p) + tr1[cod.mul(np.arange(1, q), i)][:, None]) % p
        total = np.take_along_axis(W, shift[:, None, :], axis=2).sum(axis=0)
        total[0, 0] += p ** sp.dim  # the c = 0 term at u = 0
        formula = total[:, :p - 1] - total[:, p - 1:]
        if (formula % q).any():
            raise FormulaMismatch("p^{-s} division is not exact")
        out[:, i] = direct[:, :p - 1] - direct[:, p - 1:]
        wrong = np.flatnonzero((formula // q != out[:, i]).any(axis=1))
        if wrong.size:
            raise FormulaMismatch(
                f"character-sum formula disagrees with the direct sum at u={wrong[0]}, i={i}"
            )
    return out


def power_map_exponent(codomain, sigma: dict[int, int]) -> int | None:
    """The t in [0, q - 1) with sigma(c) = c^{-t} for every nonzero c, or
    None when sigma is no such power map."""
    q = codomain.size
    return next((t for t in range(q - 1)
                 if all(sigma[c] == codomain.pow(c, -t) for c in range(1, q))), None)


def sigma_predicates_by_sets(codomain, sigma: dict[int, int], l: int) -> SigmaReport:
    """The sigma conditions by exhaustive set comparison: identity;
    sigma^{-1}(c) H_l = c H_l for every c; sigma mapping every coset of H_l
    onto a coset; and the power-map shortcut, which must agree with the
    coset-stability test."""
    q = codomain.size
    keys = set(sigma.keys())
    vals = set(sigma.values())
    if keys != set(range(1, q)) or vals != set(range(1, q)):
        raise NotBijection("sigma must permute the nonzero codomain elements")
    inv_sigma = {v: c for c, v in sigma.items()}

    is_identity = all(sigma[c] == c for c in range(1, q))
    H = frozenset(codomain.pow(x, l) for x in range(1, q))
    coset_stable = all(
        codomain.mul(inv_sigma[c], codomain.inv(c)) in H for c in range(1, q)
    )

    coset_permuting = True
    seen = set()
    for beta in range(1, q):
        if beta in seen:
            continue
        coset = frozenset(codomain.mul(beta, h) for h in H)
        seen |= coset
        image = frozenset(sigma[x] for x in coset)
        rep = next(iter(image))
        if image != frozenset(codomain.mul(rep, h) for h in H):
            coset_permuting = False
            break

    t_exp = power_map_exponent(codomain, sigma)
    if t_exp is not None:
        r = pow(t_exp, -1, q - 1)
        shortcut = (1 + r) % math.gcd(l, q - 1) == 0
        if shortcut != coset_stable:
            raise FormulaMismatch(
                "power-map shortcut disagrees with the exhaustive coset check"
            )
    return SigmaReport(is_identity, coset_stable, coset_permuting)
