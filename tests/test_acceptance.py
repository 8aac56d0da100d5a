"""Acceptance suite.

One test per criterion; each prints a single [criterion N] PASS/FAIL line
(run with -s or check captured output).  Everything is exact: there are no
tolerances anywhere, only integer and ring-element equality.
"""
import math
import random
import time
from contextlib import contextmanager
from functools import lru_cache

from bentpds.constructions import (
    diag_quad,
    mm_power,
    mm_qpoly,
    quad_trace,
    spread_bent,
    branched_quad_mm,
)
from bentpds.field import canonical_field
from bentpds.pds import (
    coset_preimage,
    gaussian_period,
    gaussian_period_semiprimitive,
    params_coset_union,
    params_match,
    params_subset,
    preimage,
    preimage_sizes,
    semiprimitive_check,
    sigma_predicates,
    verify_pds_bruteforce,
    verify_pds_characters,
    zero_preimage,
)
from bentpds.space import Space, prime_space
from bentpds.spectral import (
    VectorialFunction,
    dual_bent_certificate,
    lform_converse_check,
    walsh_full,
)
from ring_oracle import automorphism
from space_oracle import scalar_mul
from spectral_oracle import parseval_ok, walsh_naive


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL ({time.time() - t0:.1f}s): {desc}")
        raise
    print(f"\n[criterion {num}] PASS ({time.time() - t0:.1f}s): {desc}")


# ---------------------------------------------------------------------------
# shared construction instances (p = 3, group size <= 3^8), certified once
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def desk_instances():
    ns9 = min(canonical_field(3, 2).nonsquares())
    return [
        mm_power(3, 1, 1, 1, 1),                       # 3^2
        mm_power(3, 2, 2, 1, 3),                       # 3^4, sigma = c^5
        mm_power(3, 4, 2, 1, 7),                       # 3^8, sigma = id
        mm_qpoly(3, 2, 1, 1, (0, 1)),                  # 3^4, L = x^3
        mm_qpoly(3, 2, 2, 1, (1,)),                    # 3^4
        mm_qpoly(3, 4, 2, 1, (0, 1)),                  # 3^8, L = x^9
        quad_trace(3, 2, 1, 1),                        # 3^2, eps = +1
        quad_trace(3, 2, 1, ns9),                      # 3^2, eps = -1
        quad_trace(3, 4, 2, 1),                        # 3^4, eps = -1
        quad_trace(3, 8, 4, 1),                        # 3^8
        diag_quad(3, 1, 2, (1, 1)),                    # 3^2
        diag_quad(3, 2, 2, (1, 4)),                    # 3^4
        diag_quad(3, 1, 4, (1, 2, 1, 1)),              # 3^4
        diag_quad(3, 2, 4, (1, 1, 1, 1)),              # 3^8
        spread_bent(3, 1, 1),                          # 3^2
        spread_bent(3, 2, 2),                          # 3^4
        spread_bent(3, 4, 2),                          # 3^8
        branched_quad_mm(3, 2, 1, 1, 1, 1, 1, 1, 1),         # 3^4
        branched_quad_mm(3, 2, 2, 1, 1, 2, 2, 1, 4),         # 3^6
        branched_quad_mm(3, 4, 2, 2, 1, 1, 1, 1, 1),         # 3^8
    ]


@lru_cache(maxsize=1)
def certified_instances():
    out = []
    for pair in desk_instances():
        cert = dual_bent_certificate(pair.function, pair.dual)
        assert cert is not None, f"{pair.family} {pair.params} did not certify"
        out.append((pair, cert))
    return out


def constant_epsilon(cert):
    vals = set(cert.epsilons.values())
    if len(vals) == 1 and None not in vals:
        return vals.pop()
    return None


def check_pds(space, members, predicted):
    observed = verify_pds_bruteforce(space, members)
    assert observed is not None, "difference counts are not two-valued"
    assert params_match(predicted, observed), (
        f"predicted {predicted.as_tuple()}, counted {observed.as_tuple()}"
    )
    assert verify_pds_characters(space, members, predicted), "character criterion failed"


# ---------------------------------------------------------------------------
# criterion 1: formula-side reproduction of the reference quadruples
# ---------------------------------------------------------------------------

REFERENCE_QUADRUPLES = [
    ((5, 16, 2, 12, 1, 0, -1), (152587890625, 73242375000, 35156421875, 35156437500)),
    ((5, 16, 2, 12, 1, 1, -1), (152587890625, 79345515624, 41259578123, 41259562500)),
    ((7, 8, 2, 16, 1, 0, 1), (5764801, 1881600, 614705, 613872)),
    ((7, 8, 2, 16, 1, 1, 1), (5764801, 2001600, 695455, 694722)),
    ((5, 16, 2, 8, 1, 0, -1), (152587890625, 48828250000, 15624984375, 15625125000)),
    ((5, 16, 2, 8, 2, 0, -1), (152587890625, 97656500000, 62500359375, 62500250000)),
    ((3, 16, 4, 16, 1, 0, 1), (43046721, 8501760, 1682289, 1678320)),
    ((3, 16, 4, 16, 2, 1, 1), (43046721, 17541440, 7148815, 7147602)),
]


def test_criterion_1_reference_parameter_quadruples():
    with criterion(1, "reference parameter quadruples reproduce exactly, formula-only"):
        t0 = time.time()
        for (p, nt, s, h, m1, m0, eps), expected in REFERENCE_QUADRUPLES:
            got = params_coset_union(p, nt, s, h, m1, m0, eps).as_tuple()
            assert got == expected, f"{got} != {expected}"
        assert time.time() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2: end-to-end PDS verification across every family at p = 3
# ---------------------------------------------------------------------------

def _subset_cases(codomain, exhaustive):
    q = codomain.size
    if exhaustive:
        from itertools import chain, combinations

        universe = list(range(q))
        return [set(c) for c in chain.from_iterable(
            combinations(universe, r) for r in range(q + 1))]
    # sampled subsets, biased small to keep the pair counts quick
    return [set(), {0}, {1}, {0, 1}, {1, 2, 3}, {0, 1, 2, 4}]


def _theorem_driver(pair, cert):
    """Apply every theorem whose sigma predicate holds; returns the number
    of (theorem, set) verifications performed."""
    F = pair.function
    sp, sub = F.domain, F.codomain
    p, n, s, q = F.p, sp.dim, sub.m, sub.size
    eps = constant_epsilon(cert)
    assert eps is not None, "curated instances must have a constant sign"
    done = 0

    rep = sigma_predicates(sub, cert.sigma, 2)
    if rep.is_identity:
        for A in _subset_cases(sub, exhaustive=(s == 1)):
            predicted = params_subset(p, n, s, len(A), 0 in A, eps)
            check_pds(sp, preimage(F, A), predicted)
            done += 1

    divisors = [l for l in range(1, q) if (q - 1) % l == 0]
    for l in divisors:
        h = (q - 1) // math.gcd(l, q - 1)
        if not sigma_predicates(sub, cert.sigma, l).coset_stable:
            continue
        n_cosets = (q - 1) // h
        w = sub.primitive_element
        reps = [sub.pow(w, i) for i in range(min(n_cosets, 3))]
        single = params_coset_union(p, n, s, h, 1, 0, eps)
        for beta in reps:
            check_pds(sp, coset_preimage(F, l, beta), single)
            done += 1
        m1 = min(n_cosets, 2)
        union = zero_preimage(F)
        for i in range(m1):
            union = union.union(coset_preimage(F, l, sub.pow(w, i)))
        check_pds(sp, union, params_coset_union(p, n, s, h, m1, 1, eps))
        done += 1

    for t in range(2, q):
        info = semiprimitive_check(p, s, t)
        if info is None:
            continue
        h = (q - 1) // t
        if not sigma_predicates(sub, cert.sigma, t).coset_permuting:
            continue
        w = sub.primitive_element
        single = params_coset_union(p, n, s, h, 1, 0, eps)
        for i in range(min(t, 3)):
            check_pds(sp, coset_preimage(F, t, sub.pow(w, i)), single)
            done += 1
        m1 = min(t, 2)
        union = coset_preimage(F, t, 1)
        for i in range(1, m1):
            union = union.union(coset_preimage(F, t, sub.pow(w, i)))
        check_pds(sp, union, params_coset_union(p, n, s, h, m1, 0, eps))
        done += 1
    return done


def test_criterion_2_desk_scale_end_to_end():
    with criterion(2, "every family at p=3, size <= 3^8: both verifiers confirm "
                      "every applicable theorem's parameters exactly"):
        t0 = time.time()
        total = 0
        for pair, cert in certified_instances():
            total += _theorem_driver(pair, cert)
        assert total >= 100, f"only {total} verifications ran"
        elapsed = time.time() - t0
        assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: certificates with sigma and epsilon claims, all families
# ---------------------------------------------------------------------------

def test_criterion_3_certificate_suite():
    with criterion(3, ">= 10 instances across all six families certify with "
                      "sigma and epsilon equal to the claims"):
        pairs = certified_instances()
        families = {p.family for p, _ in pairs}
        assert families == {"mm-power", "mm-qpoly", "quad-trace", "diag-quad",
                            "spread", "branched-quad-mm"}
        assert len(pairs) >= 10
        for pair, cert in pairs:
            assert cert.sigma == pair.sigma, f"{pair.family}: sigma != claim"
            if pair.epsilons is not None:
                assert cert.epsilons == pair.epsilons, f"{pair.family}: eps != claim"
            F = pair.function
            assert F(0) == 0
            sp = F.domain
            step = max(1, sp.size // 997)
            for x in range(0, sp.size, step):
                assert F(sp.negate(x)) == F(x)


# ---------------------------------------------------------------------------
# criterion 4: spectral invariants
# ---------------------------------------------------------------------------

def test_criterion_4_spectral_invariants():
    with criterion(4, "Parseval exact; fast == naive for p^n <= 3^6; the "
                      "scaling automorphism identity holds tablewise"):
        rng = random.Random(1234)
        small_spaces = [
            prime_space(3, 1),
            prime_space(3, 2),
            prime_space(3, 4),
            Space([canonical_field(3, 2)]),
            Space([canonical_field(3, 2), canonical_field(3, 1)]),
            Space([canonical_field(3, 3), canonical_field(3, 3)]),
            prime_space(5, 2),
            Space([canonical_field(5, 2)]),
            prime_space(7, 2),
            prime_space(5, 3),
        ]
        for sp in small_spaces:
            tables = [[0] * sp.size, [rng.randrange(sp.p) for _ in range(sp.size)]]
            for tab in tables:
                f = VectorialFunction(sp, canonical_field(sp.p, 1), tab)
                fast = walsh_full(f)
                assert parseval_ok(fast)
                naive = walsh_naive(f)
                assert all(fast[a] == naive[a] for a in range(sp.size))

        bent = [
            mm_power(3, 1, 1, 1, 1).function,
            mm_power(5, 1, 1, 1, 1).function,
            quad_trace(3, 2, 1, 1).function,
            quad_trace(7, 1, 1, 1).function,
            diag_quad(3, 1, 2, (1, 2)).function,
            spread_bent(3, 2, 1).function,
        ]
        assert len(bent) >= 5
        for f in bent:
            sp, p = f.domain, f.p
            base = walsh_full(f)
            assert parseval_ok(base)
            for c in range(1, p):
                scaled = walsh_full(VectorialFunction(sp, f.codomain, (c * f.table) % p))
                cinv = pow(c, -1, p)
                for a in range(sp.size):
                    assert scaled[a] == automorphism(c, base[scalar_mul(sp, cinv, a)])


# ---------------------------------------------------------------------------
# criterion 5: Gaussian periods, closed form vs brute force
# ---------------------------------------------------------------------------

def test_criterion_5_gaussian_periods():
    with criterion(5, "closed-form semiprimitive periods equal brute force for "
                      "every (p, s, t) with p^s <= 81 and every a"):
        cases = 0
        for p, smax in ((3, 4), (5, 2), (7, 2)):
            for s in range(1, smax + 1):
                q = p ** s
                if q > 81:
                    continue
                for t in range(2, q):
                    if semiprimitive_check(p, s, t) is None:
                        continue
                    for a in range(1, q):
                        assert gaussian_period_semiprimitive(p, s, t, a) == \
                            gaussian_period(p, s, t, a)
                        cases += 1
        assert cases > 100


# ---------------------------------------------------------------------------
# criterion 6: the l-form converse, empirically
# ---------------------------------------------------------------------------

def test_criterion_6_lform_converse():
    with criterion(6, "every weakly regular vectorial dual-bent p-ary instance "
                      "is an l-form with gcd(l-1, p-1) = 1"):
        candidates = []
        for p in (3, 5, 7):
            ns = 2 if p == 3 else (2 if p == 5 else 3)  # least non-residue mod p
            candidates += [
                mm_power(p, 1, 1, 1, 1),
                mm_power(p, 2, 1, 1, 1),
                quad_trace(p, 2, 1, 1),
                quad_trace(p, 1, 1, 1),
                quad_trace(p, 2, 1, canonical_field(p, 2).primitive_element),
                diag_quad(p, 1, 2, (1, ns)),
                spread_bent(p, 1, 1),
                spread_bent(p, 2, 1),
                branched_quad_mm(p, 2, 1, 1, 1, 1, 1, 1, 1),
            ]
        candidates.append(mm_power(7, 1, 1, 1, 5))
        candidates.append(mm_qpoly(3, 2, 1, 1, (0, 1)))
        candidates.append(diag_quad(3, 1, 3, (1, 1, 2)))
        checked = 0
        for pair in candidates:
            assert pair.function.domain.size <= 7 ** 4
            rep = lform_converse_check(pair.function)
            assert not rep.counterexample, f"counterexample: {pair.family} {pair.params}"
            if rep.applicable:
                assert rep.passed and math.gcd(rep.valid_exponent - 1, pair.function.p - 1) == 1
                checked += 1
        assert checked >= 20, f"only {checked} applicable instances"


# ---------------------------------------------------------------------------
# criterion 7: closed-form preimage sizes on every certified instance
# ---------------------------------------------------------------------------

def test_criterion_7_preimage_sizes():
    with criterion(7, "size formulas match direct counts on every constant-sign "
                      "instance, including the eps = -1 branch"):
        saw_minus = False
        for pair, cert in certified_instances():
            eps = constant_epsilon(cert)
            if eps is None:
                continue
            sizes = preimage_sizes(pair.function, cert)  # asserts formula == count
            assert sum(sizes.values()) == pair.function.domain.size
            saw_minus |= eps == -1
        assert saw_minus, "the weakly-regular-but-not-regular branch was never exercised"
