"""Preimage sets of vectorial functions and the partial-difference-set
machinery built on them: closed-form sizes and (v, k, lambda, mu)
parameters, Gaussian periods, sigma-condition predicates, and two
independent verifiers (ordered-pair difference counting and the character
criterion).

A point set is one sorted int64 rank array from preimage to verdict; the
verifiers take a PreimageSet's ranks as they are.  Each coset of a subgroup
of GF(p^s)^* is decided on Field.log_residue.

Difference counting (verify_pds_bruteforce) runs on the exact counts of
pairs.py, which uses no character transform and no certificate, and the
character route counts no difference.  The transform's point cap
(limits.walsh_cap) bounds both routes, so the two verifiers accept the
same groups.

The (v, k, lambda, mu) parameters have one closed form, params_subset, in
|A| and z = [0 in A] for the preimage D_A of a subset A of the codomain.
A union of m1 cosets of a subgroup H, plus the zero preimage when m0 = 1,
is the case |A| = m1 |H| + m0, z = m0 (params_coset_union), and the
preimage sizes are its k at |A| = 1 (preimage_sizes).  A vectorial bent
function V_n -> GF(p^s) needs n >= 2s, so every power in the formula is an
integer; n < 2s raises HypothesisViolation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cyclo import CyclotomicInt, gauss_sum
from .errors import (
    ContainsZero,
    FormulaMismatch,
    HypothesisViolation,
    NotADivisor,
    NotBijection,
    NotSemiprimitive,
    NotSymmetric,
    SizeGuard,
)
from .field import Field, _check_integer, _integer_entries, canonical_field, is_prime
from .limits import walsh_cap
from .pairs import _dense_counts, _gather_counts, _rank_split
from .space import Space
from .spectral import MATCH_ROWS, DualBentCertificate, VectorialFunction, _char_counts


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdsParams:
    v: int
    k: int
    lam: int
    mu: int

    @property
    def beta(self) -> int:
        return self.lam - self.mu

    @property
    def gamma(self) -> int:
        return self.k - self.mu

    @property
    def delta(self) -> int:
        return self.beta * self.beta + 4 * self.gamma

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def to_dict(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


def _integer_params(params: PdsParams) -> PdsParams:
    """params, after checking that v, k, lambda and mu are integers
    (_check_integer), with Python int fields."""
    values = params.as_tuple()
    if all(type(x) is int for x in values):  # ints skip the ~7 us rebuild
        return params
    return PdsParams(*(int(_check_integer(x, what)) for x, what in
                       zip(values, ("v", "k", "lambda", "mu"))))


def params_match(candidate: PdsParams, observed: PdsParams) -> bool:
    """Equality with the degenerate conventions: lambda is vacuous for the
    empty set, mu for the whole punctured group.  Both quadruples must hold
    integers (_integer_params)."""
    candidate, observed = _integer_params(candidate), _integer_params(observed)
    if (candidate.v, candidate.k) != (observed.v, observed.k):
        return False
    if candidate.k > 0 and candidate.lam != observed.lam:
        return False
    if candidate.k < candidate.v - 1 and candidate.mu != observed.mu:
        return False
    return True


# ---------------------------------------------------------------------------
# preimage sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreimageSet:
    """A point set of a group as one sorted int64 array of distinct ranks."""

    group: Space
    ranks: np.ndarray
    descriptor: str

    def __len__(self):
        return self.ranks.size

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.ranks.tolist())

    def union(self, other: "PreimageSet") -> "PreimageSet":
        if self.group != other.group:
            raise ValueError("unions need a common group")
        # a stable sort merges the two sorted runs; a common rank is a pair
        both = np.sort(np.concatenate([self.ranks, other.ranks]), kind="stable")
        keep = np.ones(both.size, dtype=bool)
        keep[1:] = both[1:] != both[:-1]
        return PreimageSet(
            self.group, both[keep], f"{self.descriptor} | {other.descriptor}"
        )


def preimage(F: VectorialFunction, values, exclude_zero_point: bool = True,
             descriptor: str | None = None) -> PreimageSet:
    """{ x : F(x) in values }, minus the zero point when requested.  Every
    value must be an integer rank of the codomain (ValueError otherwise):
    int() would take 1.5, True and '1' for 1."""
    values = list(values)  # read twice
    if not _integer_entries(values):
        raise ValueError("values must be integer ranks")
    mask = np.zeros(F.codomain.size, dtype=bool)
    mask[[F.codomain.check_rank(v, "value") for v in values]] = True
    if descriptor is None:
        descriptor = f"A={np.flatnonzero(mask).tolist()}"
        descriptor += "" if exclude_zero_point else " (with 0)"
    return _mask_preimage(F, mask, exclude_zero_point, descriptor)


def _mask_preimage(F, mask: np.ndarray, exclude_zero_point: bool, descriptor: str) -> PreimageSet:
    """{ x : mask[F(x)] } for a boolean mask over the codomain ranks."""
    ranks = np.flatnonzero(np.take(mask, F.table))
    if exclude_zero_point and ranks.size and ranks[0] == 0:
        ranks = ranks[1:]
    return PreimageSet(F.domain, ranks, descriptor)


def zero_preimage(F: VectorialFunction, exclude_zero_point: bool = True) -> PreimageSet:
    return preimage(F, [0], exclude_zero_point, "D_0")


def squares_preimage(F: VectorialFunction, exclude_zero_point: bool = True) -> PreimageSet:
    return _mask_preimage(F, F.codomain.subgroup_coset(2, 1).mask, exclude_zero_point, "D_S")


def nonsquares_preimage(F: VectorialFunction, exclude_zero_point: bool = True) -> PreimageSet:
    mask = F.codomain.subgroup_coset(2, F.codomain.primitive_element).mask  # w H_2
    return _mask_preimage(F, mask, exclude_zero_point, "D_N")


def coset_preimage(F: VectorialFunction, l: int, beta: int,
                   exclude_zero_point: bool = True) -> PreimageSet:
    mask = F.codomain.subgroup_coset(l, beta).mask
    return _mask_preimage(F, mask, exclude_zero_point, f"D_betaH(l={l},beta={beta})")


def preimage_sizes(F: VectorialFunction, cert: DualBentCertificate) -> dict[int, int]:
    """Closed-form |D_i| for a certified function with constant component
    sign eps, asserted against direct counts: the params_subset k at
    |A| = 1 with 0 in A iff i = 0, plus the zero point at i = 0, that is
    p^{n-s} + eps (p^s - 1) p^{n/2 - s} at i = 0, else p^{n-s} - eps p^{n/2 - s}."""
    sp, cod = F.domain, F.codomain
    n, s, p = sp.dim, cod.m, F.p
    if n % 2 != 0:
        raise HypothesisViolation("n must be even")
    if int(F.table[0]) != 0:
        raise HypothesisViolation("F(0) must be 0")
    if not np.array_equal(sp.gather_scaled(F.table, p - 1), F.table):
        raise HypothesisViolation("F(-x) = F(x) must hold")
    eps_values = set(cert.epsilons.values())
    if len(eps_values) != 1 or None in eps_values:
        raise HypothesisViolation(f"component signs are not constant: {cert.epsilons}")
    eps = eps_values.pop()
    zero = params_subset(p, n, s, 1, True, eps).k + 1
    other = params_subset(p, n, s, 1, False, eps).k
    sizes = {}
    counts = np.bincount(F.table, minlength=cod.size)
    for i in range(cod.size):
        predicted = zero if i == 0 else other
        if predicted != int(counts[i]):
            raise FormulaMismatch(
                f"|D_{i}| formula gives {predicted}, direct count {int(counts[i])}"
            )
        sizes[i] = predicted
    return sizes


# ---------------------------------------------------------------------------
# sigma-condition predicates
# ---------------------------------------------------------------------------

@dataclass
class SigmaReport:
    is_identity: bool
    coset_stable: bool
    coset_permuting: bool


def sigma_predicates(codomain: Field, sigma: dict[int, int], l: int) -> SigmaReport:
    """Decide the sigma conditions the parameter theorems hypothesise:
    identity; sigma^{-1}(c) H_l = c H_l for every c (coset-stable: sigma
    keeps the residue log c mod g, H_l having index g = gcd(l, p^s - 1));
    and sigma mapping every coset of H_l onto a coset (coset-permuting: the
    residue of sigma(c) depends only on that of c, as sigma is a bijection).
    At l = 2, H_2 is the squares S, and coset_stable is sigma(S) = S.

    When sigma is the power map c -> c^{-t}, the coset-stability test has an
    arithmetic shortcut: gcd(l, p^s - 1) | (1 + r) with t r = 1; both routes
    are computed and must agree."""
    q = codomain.size
    if set(sigma.keys()) != set(range(1, q)) or set(sigma.values()) != set(range(1, q)):
        raise NotBijection("sigma must permute the nonzero codomain elements")
    if _check_integer(l, "exponent") < 1:
        raise ValueError("exponent must be >= 1")
    c = np.arange(1, q)
    image = np.array([sigma[x] for x in range(1, q)], dtype=np.int64)
    g = math.gcd(l, q - 1)
    res, image_res = codomain.log_residue(c, g), codomain.log_residue(image, g)
    is_identity = bool((image == c).all())
    coset_stable = bool((image_res == res).all())
    by_res = np.empty(g, dtype=np.int64)
    by_res[res] = image_res  # one image residue per residue, if sigma permutes cosets
    coset_permuting = bool((by_res[res] == image_res).all())

    t_exp = -codomain.log_residue(sigma[codomain.primitive_element], q - 1) % (q - 1)
    if (image == codomain.pow(c, -t_exp)).all():
        if ((1 + pow(t_exp, -1, q - 1)) % g == 0) != coset_stable:
            raise FormulaMismatch("power-map shortcut disagrees with the residue coset check")
    return SigmaReport(is_identity, coset_stable, coset_permuting)


# ---------------------------------------------------------------------------
# closed-form parameters
# ---------------------------------------------------------------------------

def _check_prime_power(p: int, s: int, n: int = 0) -> tuple[int, int, int]:
    """(p, s, n) as Python ints, so that no power of them wraps.  Reject
    any that is not an integer (_check_integer), p^s unless p is an odd
    prime and s >= 1, and a negative n.  Also reject p^s or p^n with more
    decimal digits than Python will print (sys.get_int_max_str_digits()),
    decided from the exponent so that an outsized one costs nothing."""
    p, s, n = (int(_check_integer(x, what)) for x, what in ((p, "p"), (s, "s"), (n, "n")))
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if s < 1 or n < 0:
        raise ValueError(f"need s >= 1 and n >= 0, got s = {s}, n = {n}")
    limit, e = sys.get_int_max_str_digits(), max(s, n)
    if limit and e * math.log10(p) >= limit:
        raise ValueError(f"{p}^{e} has more than {limit} decimal digits")
    return p, s, n


def params_subset(
    p: int, n: int, s: int, size_a: int, contains_zero: bool, epsilon: int
) -> PdsParams:
    """Parameters of D_A = { x != 0 : F(x) in A } for A in GF(p^s), sigma
    the identity and component sign epsilon.  With |A| = a and z = [0 in A],

        k      = a p^{n-s} + eps p^{n/2-s} (z p^s - a) - z
        lambda = a^2 p^{n-2s} + eps p^{n/2-s} (p^s + (2z - 3)(a - z) - z) - 2z
        mu     = a^2 p^{n-2s} + eps p^{n/2-s} ((2z - 1)(a - z) + z)

    The one place that evaluates k, lambda and mu: params_coset_union and
    preimage_sizes are this block at particular (a, z)."""
    p, s, n = _check_prime_power(p, s, n)
    if n % 2 != 0:
        raise HypothesisViolation("n must be even")
    if 2 * s > n:
        raise HypothesisViolation(f"need n >= 2s, got n = {n}, s = {s}")
    if _check_integer(epsilon, "epsilon") not in (1, -1):
        raise ValueError(f"epsilon must be 1 or -1, got {epsilon}")
    epsilon, a = int(epsilon), int(_check_integer(size_a, "size_a"))
    z, ps = 1 if contains_zero else 0, p ** s
    if not z <= a <= ps - 1 + z:
        raise ValueError(
            f"size_a = {a} must lie in [{z}, {ps - 1 + z}] when 0 is "
            f"{'' if z else 'not '}in A (p^s = {ps})"
        )
    half, base, base2 = p ** (n // 2 - s), p ** (n - s), p ** (n - 2 * s)
    k = a * base + epsilon * half * (z * ps - a) - z
    lam = base2 * a * a + epsilon * half * (ps + (2 * z - 3) * (a - z) - z) - 2 * z
    mu = base2 * a * a + epsilon * half * ((2 * z - 1) * (a - z) + z)
    return PdsParams(p ** n, k, lam, mu)


def params_coset_union(
    p: int, n_total: int, s: int, h_size: int, m1: int, m0: int, epsilon: int
) -> PdsParams:
    """Parameters of a union of m1 distinct H-cosets preimages (|H| = h_size)
    and, when m0 = 1, the zero preimage: the params_subset block at
    |A| = m1 |H| + m0 with 0 in A iff m0 = 1.  m1 = 1, m0 = 0 is the
    single-coset block shared by the coset-stability and semiprimitive
    theorems."""
    p, s, n_total = _check_prime_power(p, s, n_total)
    h_size, m1, m0 = (int(_check_integer(x, what)) for x, what in
                      ((h_size, "h_size"), (m1, "m1"), (m0, "m0")))
    if n_total % 2 != 0:
        raise HypothesisViolation("total dimension must be even")
    ps = p ** s
    if h_size <= 0 or (ps - 1) % h_size != 0:
        raise NotADivisor(f"h_size {h_size} must divide p^s - 1 = {ps - 1}")
    if m0 not in (0, 1):
        raise ValueError("m0 is 0 or 1")
    if not 0 <= m1 <= (ps - 1) // h_size:
        raise ValueError("m1 exceeds the number of cosets")
    return params_subset(p, n_total, s, m1 * h_size + m0, m0 == 1, epsilon)


# ---------------------------------------------------------------------------
# Gaussian periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiprimitiveInfo:
    j: int
    r: int


def semiprimitive_check(p: int, s: int, t: int) -> SemiprimitiveInfo | None:
    """Smallest j with t | p^j + 1 (scanned up to s), plus r with s = 2 j r;
    None when the parameters are not semiprimitive."""
    p, s, _ = _check_prime_power(p, s)
    if _check_integer(t, "t") < 2:
        return None
    for j in range(1, s + 1):
        if (p ** j + 1) % t == 0:
            if s % (2 * j) == 0:
                return SemiprimitiveInfo(j, s // (2 * j))
            return None
    return None


def gaussian_period(p: int, s: int, t: int, a: int) -> CyclotomicInt:
    """eta_a = sum over the subgroup H_t of zeta^{Tr_1^s(a x)}, brute force."""
    p, s, _ = _check_prime_power(p, s)
    sub = canonical_field(p, s)
    sub.check_rank(a, "a")
    if _check_integer(t, "t") < 1 or (sub.size - 1) % t != 0:
        raise NotADivisor(f"t = {t} must divide p^s - 1 = {sub.size - 1}")
    H = np.flatnonzero(sub.log_residue(np.arange(sub.size), t) == 0)
    counts = np.bincount(sub.trace(1, sub.mul(a, H)), minlength=p)
    return CyclotomicInt.from_exponent_counts(p, counts.tolist())


def gaussian_period_semiprimitive(p: int, s: int, t: int, a: int) -> CyclotomicInt:
    """The closed form in the semiprimitive case: with j minimal and
    s = 2jr, the period is rational.  At a = 0 it is |H_t| = (p^s - 1)/t;
    at a != 0 it is

       r, (p^j+1)/t both odd:  [a in w^{t/2} H_t] p^{s/2} - (p^{s/2}+1)/t
       otherwise:              [a in H_t] (-1)^{r+1} p^{s/2}
                                 + ((-1)^r p^{s/2} - 1)/t

    The shifted coset w^{t/2} H_t does not depend on the primitive element
    w; that independence is asserted against a second primitive element
    rather than assumed."""
    p, s, _ = _check_prime_power(p, s)
    sub = canonical_field(p, s)
    sub.check_rank(a, "a")
    info = semiprimitive_check(p, s, t)
    if info is None:
        raise NotSemiprimitive(f"(p, s, t) = ({p}, {s}, {t}) is not semiprimitive")
    if a == 0:
        return CyclotomicInt.from_int(p, (sub.size - 1) // t)
    root = p ** (s // 2)
    res = sub.log_residue(a, t)  # a lies in w^res H_t
    if info.r % 2 == 1 and ((p ** info.j + 1) // t) % 2 == 1:
        # a second primitive element w2 = w^k gives w2^{t/2} H_t = w^{kt/2} H_t
        w2 = next(x for x in range(sub.primitive_element + 1, sub.size)
                  if sub.multiplicative_order(x) == sub.size - 1)
        if sub.log_residue(w2, t) * (t // 2) % t != t // 2:
            raise FormulaMismatch("w^{t/2} H_t depends on the primitive element")
        value = int(res == t // 2) * root - (root + 1) // t
    else:
        sign = -1 if info.r % 2 == 0 else 1    # (-1)^{r+1}
        value = int(res == 0) * sign * root + ((-1) ** info.r * root - 1) // t
    return CyclotomicInt.from_int(p, value)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _candidacy(space: Space, D) -> tuple[np.ndarray, np.ndarray]:
    """D as a sorted rank array and as a bool indicator over space, checked
    to avoid 0 and to satisfy -D = D, by one lookup of the indicator at
    space.negate of the ranks.  A PreimageSet's ranks are taken as they are
    once its group matches space in p and size and they are strictly
    increasing ranks of space; any other iterable must hold distinct
    integer ranks of space (see _integer_entries), and is sorted."""
    if isinstance(D, PreimageSet):
        if (D.group.p, D.group.size) != (space.p, space.size):
            raise ValueError(f"the set's group has {D.group.size} points, not {space.size}")
        Dv = D.ranks
    else:
        if not _integer_entries(D):
            raise ValueError("members must be integer ranks")
        Dv = np.sort(np.fromiter(D, dtype=np.int64, count=len(D)))
    # sorted iterables fail only on a repeat; a PreimageSet also on a descent
    if (Dv[1:] <= Dv[:-1]).any():
        raise ValueError("members must be distinct ranks")
    if Dv.size and (Dv[0] < 0 or Dv[-1] >= space.size):
        raise ValueError(f"members must be ranks in [0, {space.size})")
    if Dv.size and Dv[0] == 0:
        raise ContainsZero("0 must not belong to a regular PDS candidate")
    in_D = np.zeros(space.size, dtype=bool)
    in_D[Dv] = True
    if not in_D[space.negate(Dv)].all():
        raise NotSymmetric("-D = D must hold")
    return Dv, in_D


def verify_pds_bruteforce(space: Space, D) -> PdsParams | None:
    """Count, for every nonzero g, the ordered pairs (d1, d2) in D^2 with
    d1 - d2 = g.  Returns the parameters when the count is constant on D and
    constant off D, else None.  Degenerate sets report lambda = mu = 0 for
    the vacuous positions.

    Both counting routes are exact difference counting (pairs.py) and never
    use a character transform or a certificate, and both read one
    _rank_split of D.  A sparse set goes through _gather_counts, |D|^2
    table lookups; a set with 16 |D| >= v goes through _dense_counts,
    1 + (q2 - 1) / n float32 products of (q2 + 1) / 2 rows, about v q1 / 2
    multiply-adds each (q1 q2 = v), where n >= 2 is the order of the
    group of D's symmetries (c_lo x_lo, c_hi x_hi) that _orbit_group finds
    and hands on as two half maps: at most about v^2 / 4 multiply-adds when
    only +-1 fix D, and two products when c_hi is primitive, as for every
    Maiorana-McFarland and spread preimage on GF(p^m)^2.  The rule sits
    where the product won on every group measured: with single-threaded
    BLAS on a 2-vCPU Xeon VM, on random symmetric sets (|S| = 2, no larger
    symmetry) at 3^8, 3^10, 3^12, 5^6 and 7^6, the product won at
    |D| = v / 16 on each and gathering at v / 64; in between the winner
    depends on the group (at v / 32 the product won at 3^10, 3^12 and 7^6,
    gathering at 3^8 and 5^6).  Both routes stay because sparse sets occur:
    at 3^12 with |D| = v / 256, the size of a D_0 with s = m, gathering
    takes 0.11 s and the product of a set without symmetry about 1.5 s.
    The cap bounds both routes: v must be within the transform's point
    cap, so the two verifiers accept the same groups, at under v^2 / 256
    gathers or about v^2 / 4 multiply-adds."""
    Dv, in_D = _candidacy(space, D)
    v = space.size
    if v > walsh_cap():
        raise SizeGuard(f"p^n = {v} exceeds the point cap")
    if Dv.size == 0:
        return PdsParams(v, 0, 0, 0)
    N = Dv.size
    split = _rank_split(space, Dv)
    counts = _dense_counts(split) if 16 * N >= v else _gather_counts(split)
    rest = ~in_D
    rest[0] = False
    lam, mu = _constant(counts[in_D]), _constant(counts[rest])
    if lam is None or mu is None:
        return None
    return PdsParams(v, N, lam, mu)


def _constant(values: np.ndarray) -> int | None:
    """The value every entry holds, 0 for no entries, None when they
    differ."""
    if values.size == 0:
        return 0
    low, high = int(values.min()), int(values.max())
    return low if low == high else None


def _ring_sqrt(p: int, delta: int) -> tuple[int, ...] | None:
    """A square root of delta >= 0 in Z[zeta_p] as a coefficient row, or
    None when it has none.  Q(sqrt(p*)), p* = +-p = 1 mod 4, is the only
    quadratic subfield of Q(zeta_p), so a non-square delta has a root there
    only as d g with delta = p* d^2 and the Gauss sum g, g^2 = p*."""
    root = math.isqrt(delta)
    if root * root == delta:
        return (root,) + (0,) * (p - 2)
    d2, rem = divmod(delta, p if p % 4 == 1 else -p)
    d = math.isqrt(d2) if d2 > 0 else 0
    if rem or d * d != d2:
        return None
    return tuple(d * c for c in gauss_sum(p).coeffs)


def verify_pds_characters(space: Space, D, candidate: PdsParams) -> bool:
    """Character criterion: D (with -D = D, 0 not in D, |D| = k) is a
    (v, k, lambda, mu) PDS iff every nontrivial character sum lies in
    { (beta +- sqrt(Delta)) / 2 }.  All p^n sums come out of one transform
    of the indicator table; its coefficient rows, whose rows 1.. are those
    sums in another order, meet 2 chi(D) = beta +- sqrt(Delta) column by
    column, with sqrt(Delta) an integer or d g for Delta = p* d^2.  Any
    other Delta, and a negative one (the sums of a symmetric set are real),
    rejects without a transform.  No difference is counted.  v, k, lambda
    and mu must be integers (_integer_params)."""
    candidate = _integer_params(candidate)
    Dv, in_D = _candidacy(space, D)
    if candidate.v != space.size or candidate.k != Dv.size:
        return False
    if Dv.size == 0:
        return candidate.mu == 0  # no pair differs by anything; lambda is vacuous
    p, delta = space.p, candidate.delta
    root = _ring_sqrt(p, delta) if delta >= 0 else None
    if root is None:
        return False
    # r1, r2 = (beta +- sqrt(Delta)) / 2 as coefficient rows, r1 + r2 = beta
    twice_r1 = (candidate.beta + root[0],) + root[1:]
    if any(c % 2 for c in twice_r1):
        return False
    r1 = [c // 2 for c in twice_r1]
    r2 = [candidate.beta - r1[0]] + [-c for c in r1[1:]]
    if max(map(abs, r1 + r2)) > Dv.size:  # coefficients lie in [-k, k]; floats may overflow
        return False
    indicator = in_D.view(np.int8) - 1  # 0 on D, -1 leaves x out
    A = _char_counts(space, indicator)[1:]  # chi(D) at every nontrivial character
    # MATCH_ROWS rows at a time as a contiguous copy, compared column by
    # column: on A's strided columns the compares take about 3x as long, and
    # a reduction along the short row axis about 8x
    for start in range(0, A.shape[0], MATCH_ROWS):
        C = np.ascontiguousarray(A[start : start + MATCH_ROWS].T)
        is_r1, is_r2 = C[0] == r1[0], C[0] == r2[0]
        for j in range(1, p - 1):
            is_r1 &= C[j] == r1[j]
            is_r2 &= C[j] == r2[j]
        if not (is_r1 | is_r2).all():
            return False
    return True


__all__ = [
    "PdsParams",
    "PreimageSet",
    "SemiprimitiveInfo",
    "SigmaReport",
    "coset_preimage",
    "gaussian_period",
    "gaussian_period_semiprimitive",
    "nonsquares_preimage",
    "params_coset_union",
    "params_match",
    "params_subset",
    "preimage",
    "preimage_sizes",
    "semiprimitive_check",
    "sigma_predicates",
    "squares_preimage",
    "verify_pds_bruteforce",
    "verify_pds_characters",
    "zero_preimage",
]
