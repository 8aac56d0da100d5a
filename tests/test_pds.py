import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bentpds import pds
from bentpds.constructions import mm_power, quad_trace
from bentpds.cyclo import CyclotomicInt
from bentpds.errors import (
    BentError,
    ContainsZero,
    HypothesisViolation,
    NotADivisor,
    NotBijection,
    NotSemiprimitive,
    NotSymmetric,
    SizeGuard,
)
from bentpds.field import canonical_field
from bentpds.pds import (
    PdsParams,
    coset_preimage,
    gaussian_period,
    gaussian_period_semiprimitive,
    nonsquares_preimage,
    params_coset_union,
    params_match,
    params_subset,
    preimage,
    preimage_sizes,
    semiprimitive_check,
    sigma_predicates,
    squares_preimage,
    verify_pds_bruteforce,
    verify_pds_characters,
    zero_preimage,
)
from bentpds.space import Space, prime_space
from bentpds.spectral import VectorialFunction, dual_bent_certificate
from pds_oracle import (
    char_sum_preimage,
    component_spectra,
    power_map_exponent,
    preimage_ranks,
    sigma_predicates_by_sets,
)
from space_oracle import join, scalar_mul

XY = mm_power(3, 1, 1, 1, 1)  # F(x, y) = xy on F_3 x F_3


def test_preimage_examples():
    D0 = zero_preimage(XY.function)
    sp = XY.function.domain
    assert D0.members == {join(sp, t) for t in [(0, 1), (0, 2), (1, 0), (2, 0)]}
    assert len(preimage(XY.function, set())) == 0
    whole = preimage(XY.function, {0, 1, 2}, exclude_zero_point=False)
    assert whole.members == frozenset(range(9))
    punctured = preimage(XY.function, {0, 1, 2})
    assert punctured.members == frozenset(range(1, 9))


def test_preimage_rejects_values_outside_the_codomain():
    for values in ({99}, {-1}, {0, 3}):
        with pytest.raises(ValueError):
            preimage(XY.function, values)


def test_preimage_rejects_values_that_are_not_integers():
    # each of these used to be coerced by int() and give A=[1]
    for values in ([1.5], [True], ["1"], [2, 1.0], [np.float64(1)], [np.bool_(True)]):
        with pytest.raises(ValueError):
            preimage(XY.function, values)
    assert preimage(XY.function, [np.int8(1), 2]).descriptor == "A=[1, 2]"


def _outcome(verifier, *args):
    """The verifier's verdict, or the type of the exception it raised."""
    try:
        return verifier(*args)
    except (BentError, ValueError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_preimage_sets_match_the_point_oracle(data):
    """On a random F, even or not, and random A and B, with and without the
    zero point: D.ranks is F^{-1}(A) as the per-point oracle lists it,
    union is set union, and both verifiers give one verdict on a set and on
    its frozenset of members."""
    sp = data.draw(st.sampled_from(VERIFIER_SPACES), label="space")
    s = data.draw(st.sampled_from([1, 2] if sp.p ** 2 <= 49 else [1]), label="s")
    cod = canonical_field(sp.p, s)
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    table = np.random.default_rng(seed).integers(0, cod.size, sp.size)
    if data.draw(st.booleans(), label="even"):
        table = table[np.minimum(np.arange(sp.size), sp.neg)]
    F = VectorialFunction(sp, cod, table)
    values = st.lists(st.integers(0, cod.size - 1), max_size=cod.size)
    A, B = data.draw(values, label="A"), data.draw(values, label="B")
    exclude = data.draw(st.booleans(), label="exclude the zero point")
    D, E = preimage(F, A, exclude), preimage(F, B, exclude)
    oracle_A, oracle_B = preimage_ranks(F, A, exclude), preimage_ranks(F, B, exclude)
    assert D.ranks.dtype == np.int64
    assert D.ranks.tolist() == oracle_A and E.ranks.tolist() == oracle_B
    union = D.union(E)
    assert union.ranks.tolist() == sorted(set(oracle_A) | set(oracle_B))
    for S in (D, union):
        observed = _outcome(verify_pds_bruteforce, sp, S)
        assert _outcome(verify_pds_bruteforce, sp, S.members) == observed
        candidate = (observed if isinstance(observed, PdsParams)
                     else PdsParams(sp.size, len(S), 0, 0))
        assert (_outcome(verify_pds_characters, sp, S, candidate)
                == _outcome(verify_pds_characters, sp, S.members, candidate))


def test_char_sum_principal_character_counts():
    assert char_sum_preimage(XY.function, 0, 0) == 5
    assert char_sum_preimage(XY.function, 0, 1) == 2
    assert char_sum_preimage(XY.function, 0, 2) == 2


@pytest.mark.parametrize(
    "pair",
    [
        XY,
        quad_trace(3, 2, 2, 1),
        mm_power(3, 2, 1, 1, 1),
        quad_trace(3, 4, 2, 1),
        mm_power(3, 3, 1, 1, 1),
    ],
    ids=["xy", "quad-s2", "mm-3^4", "quad-3^4", "mm-3^6"],
)
def test_proposition3_formula_exhaustive(pair):
    F = pair.function
    spectra = component_spectra(F)
    for u in range(F.domain.size):
        for i in range(F.codomain.size):
            char_sum_preimage(F, u, i, spectra)  # raises FormulaMismatch on disagreement


def test_preimage_sizes_regular():
    cert = dual_bent_certificate(XY.function, XY.dual)
    assert preimage_sizes(XY.function, cert) == {0: 5, 1: 2, 2: 2}


def test_preimage_sizes_minus_one_branch():
    F9 = canonical_field(3, 2)
    a_ns = min(F9.nonsquares())
    pair = quad_trace(3, 2, 1, a_ns)
    cert = dual_bent_certificate(pair.function, pair.dual)
    assert set(cert.epsilons.values()) == {-1}
    assert preimage_sizes(pair.function, cert) == {0: 1, 1: 4, 2: 4}


def test_preimage_sizes_rejects_varying_epsilon():
    pair = quad_trace(3, 2, 2, 1)  # component signs depend on c
    cert = dual_bent_certificate(pair.function, pair.dual)
    with pytest.raises(HypothesisViolation):
        preimage_sizes(pair.function, cert)


def test_sigma_predicates_identity_for_p3():
    F3 = canonical_field(3, 1)
    rep = sigma_predicates(F3, {1: 1, 2: 2}, 2)
    assert rep.is_identity and rep.coset_stable and rep.coset_permuting


def test_sigma_predicates_inversion_mod7():
    F7 = canonical_field(7, 1)
    inv = {c: F7.inv(c) for c in range(1, 7)}
    rep2 = sigma_predicates(F7, inv, 2)
    assert rep2.coset_stable  # sigma(S) = S: gcd(2,6)=2 divides 1+r=2
    rep3 = sigma_predicates(F7, inv, 3)
    assert not rep3.coset_stable  # gcd(3,6)=3 does not divide 2
    assert power_map_exponent(F7, inv) == 1


def test_sigma_predicates_non_power_map():
    F7 = canonical_field(7, 1)
    swap = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}
    rep = sigma_predicates(F7, swap, 1)
    assert power_map_exponent(F7, swap) is None
    assert rep.coset_stable  # l = 1: H is the whole group


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sigma_predicates_match_the_set_oracle_on_every_sigma(p):
    field = canonical_field(p, 1)
    for image in itertools.permutations(range(1, p)):
        sigma = dict(zip(range(1, p), image))
        for l in range(1, p + 1):
            assert sigma_predicates(field, sigma, l) == sigma_predicates_by_sets(field, sigma, l)


def _coset_block_sigma(field, g, rng):
    """A random sigma that maps each coset of the index-g subgroup onto the
    coset a random permutation of the residues mod g names."""
    q, w = field.size, field.primitive_element
    target = rng.permutation(g)
    sigma = {}
    for r in range(g):
        coset = [field.pow(w, r + g * k) for k in range((q - 1) // g)]
        images = [field.pow(w, int(target[r]) + g * k) for k in range((q - 1) // g)]
        sigma.update(zip(coset, (images[i] for i in rng.permutation(len(images)))))
    return sigma


@pytest.mark.parametrize("p,s", [(3, 2), (5, 2), (3, 3)], ids=["q=9", "q=25", "q=27"])
def test_sigma_predicates_match_the_set_oracle_on_random_sigma(p, s):
    """Uniform permutations, power maps c -> c^{-t}, their products with a
    constant, and coset-block permutations, so that every predicate is
    seen both true and false."""
    field = canonical_field(p, s)
    q = field.size
    rng = np.random.default_rng(q)
    units = range(1, q)
    divisors = [d for d in range(1, q) if (q - 1) % d == 0]
    ts = [t for t in range(1, q - 1) if math.gcd(t, q - 1) == 1]
    sigmas = [dict(zip(units, (int(x) for x in rng.permutation(units)))) for _ in range(10)]
    for t in ts:
        sigmas.append({c: field.pow(c, -t) for c in units})
        beta = int(rng.integers(2, q))
        sigmas.append({c: field.mul(beta, field.pow(c, -t)) for c in units})
    sigmas += [_coset_block_sigma(field, int(rng.choice(divisors)), rng) for _ in range(10)]
    seen = set()
    for sigma in sigmas:
        for l in divisors + [q, 2 * q - 2, int(rng.integers(1, 3 * q))]:
            report = sigma_predicates(field, sigma, l)
            assert report == sigma_predicates_by_sets(field, sigma, l)
            seen.add((report.is_identity, report.coset_stable, report.coset_permuting,
                      power_map_exponent(field, sigma) is None))
    for i in range(4):
        assert {key[i] for key in seen} == {True, False}


def test_sigma_predicates_requires_bijection():
    with pytest.raises(NotBijection):
        sigma_predicates(canonical_field(3, 1), {1: 1, 2: 1}, 2)
    with pytest.raises(ValueError):
        sigma_predicates(canonical_field(3, 1), {1: 1, 2: 2}, 0)


def test_semiprimitive_check():
    info = semiprimitive_check(3, 2, 2)
    assert (info.j, info.r) == (1, 1)
    info53 = semiprimitive_check(5, 2, 3)
    assert (info53.j, info53.r) == (1, 1)
    assert semiprimitive_check(3, 2, 5) is None
    info345 = semiprimitive_check(3, 4, 5)
    assert (info345.j, info345.r) == (2, 1)
    assert semiprimitive_check(3, 4, 1) is None  # t >= 2 required


def test_semiprimitive_check_rejects_bad_p_and_s():
    for p, s, t in ((4, 2, 5), (9, 2, 5), (1, 2, 2), (3, 0, 2)):
        with pytest.raises(ValueError):
            semiprimitive_check(p, s, t)


def test_params_subset_examples():
    assert params_subset(3, 2, 1, 1, False, 1).as_tuple() == (9, 2, 1, 0)
    assert params_subset(3, 2, 1, 1, True, 1).as_tuple() == (9, 4, 1, 2)
    assert params_subset(3, 2, 1, 0, False, 1).k == 0
    whole = params_subset(3, 2, 1, 3, True, 1)
    assert whole.k == 8 and whole.lam == 7


def test_params_subset_requires_even_n():
    with pytest.raises(HypothesisViolation):
        params_subset(3, 3, 1, 1, False, 1)


def test_params_subset_requires_n_at_least_2s():
    # no vectorial bent function GF(p)^n -> GF(p^s) has n < 2s
    with pytest.raises(HypothesisViolation):
        params_subset(3, 2, 2, 1, False, 1)
    with pytest.raises(HypothesisViolation):
        params_subset(3, 2, 2, 3, True, -1)  # the formula would give lambda = -3
    with pytest.raises(HypothesisViolation):
        params_coset_union(3, 2, 2, 8, 1, 0, 1)
    assert params_subset(3, 4, 2, 1, False, 1).v == 81


def test_params_coset_union_is_single_coset_block_at_m1_1():
    a = params_coset_union(3, 4, 1, 2, 1, 0, 1)
    # against the subset block with |A| = |H| (0 not in A)
    b = params_subset(3, 4, 1, 2, False, 1)
    assert a.as_tuple() == b.as_tuple()


def test_params_coset_union_validates():
    with pytest.raises(NotADivisor):
        params_coset_union(3, 4, 2, 3, 1, 0, 1)  # 3 does not divide 8
    with pytest.raises(ValueError):
        params_coset_union(3, 4, 1, 2, 2, 0, 1)  # only one coset exists
    with pytest.raises(ValueError):
        params_coset_union(3, 4, 1, 2, 1, 2, 1)


def test_gaussian_period_brute_force_examples():
    F9 = canonical_field(3, 2)
    assert gaussian_period(3, 2, 2, 1) == 1
    assert gaussian_period(3, 2, 2, min(F9.nonsquares())) == -2
    # trivial subgroup: eta_a = zeta^{Tr(a)}
    assert gaussian_period(3, 2, 8, 1) == CyclotomicInt.zeta_pow(3, 2)
    with pytest.raises(NotADivisor):
        gaussian_period(3, 2, 3, 1)


def test_gaussian_period_rejects_out_of_range_arguments():
    # the brute-force route and the semiprimitive closed form alike
    for period in (gaussian_period, gaussian_period_semiprimitive):
        with pytest.raises(ValueError):
            period(3, 2, 2, 99)  # a must be a rank of GF(9)
        with pytest.raises(ValueError):
            period(3, 2, 2, -1)
        with pytest.raises(ValueError):
            period(4, 2, 3, 1)  # p must be an odd prime
        with pytest.raises(ValueError):
            period(3, 0, 2, 0)  # s must be >= 1


def test_params_subset_rejects_oversized_subset():
    with pytest.raises(ValueError):
        params_subset(3, 4, 1, 9, False, 1)  # |A| = 9 > p^s = 3 would give k = 216 > v = 81
    with pytest.raises(ValueError):
        params_subset(3, 4, 1, -1, False, 1)
    with pytest.raises(ValueError):
        params_subset(3, 4, 1, 0, True, 1)  # an empty A cannot contain 0
    with pytest.raises(ValueError):
        params_subset(3, 4, 1, 3, False, 1)  # |A| = p^s forces 0 in A


def test_params_reject_epsilon_outside_plus_minus_one():
    for eps in (0, 2, 7, -3):
        with pytest.raises(ValueError):
            params_subset(3, 4, 1, 1, False, eps)
        with pytest.raises(ValueError):
            params_coset_union(3, 4, 1, 2, 1, 0, eps)


@pytest.mark.parametrize("func, args", [
    (params_subset, (3, 4, 1, 1.5, False, 1)),  # would give k = 36.0
    (params_subset, (3, 4.0, 1, 1, False, 1)),  # would give float v, k, lambda, mu
    (params_subset, (3.0, 4, 1, 1, False, 1)),
    (params_subset, (3, 4, True, 1, False, 1)),
    (params_subset, (3, 4, 1, 1, False, True)),  # epsilon = True is not 1
    (params_subset, (3, 4, 1, 1, False, 1.0)),
    (params_coset_union, (3, 4, 2, 2.0, 1, 0, 1)),  # would give k = 16.0
    (params_coset_union, (3, 4, 1, 2, 1.0, 0, 1)),
    (params_coset_union, (3, 4, 1, 2, 1, 0.0, 1)),
    (params_coset_union, (3, 4.0, 1, 2, 1, 0, 1)),
    (semiprimitive_check, (3, 1.5, 2)),  # was a TypeError from range()
    (gaussian_period_semiprimitive, (3, 2.0, 2, 1)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_parameter_block_rejects_arguments_that_are_not_integers(func, args):
    with pytest.raises(ValueError, match="must be an integer"):
        func(*args)


def test_parameter_block_computes_numpy_integer_arguments_as_python_ints():
    # a power of numpy int64 arguments would wrap: 3^60 > 2^63
    got = params_subset(np.int64(3), np.int64(60), np.int64(1), np.int64(1), True, np.int64(1))
    assert got == params_subset(3, 60, 1, 1, True, 1)
    assert got.v == 3 ** 60
    args = (3, 4, 1, 2, 1, 0, 1)
    assert params_coset_union(*map(np.int64, args)) == params_coset_union(*args)


def test_params_refuse_exponents_past_the_printable_digits(monkeypatch):
    # 3^9012 has 4300 decimal digits and 3^9014 has 4301
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert params_subset(3, 9012, 1, 1, True, 1).v == 3 ** 9012
    with pytest.raises(ValueError):
        params_subset(3, 9014, 1, 1, True, 1)
    with pytest.raises(ValueError):
        params_subset(3, 2_000_000, 1, 1, True, 1)
    with pytest.raises(ValueError):
        params_subset(3, 2, 2_000_000, 1, True, 1)
    with pytest.raises(ValueError):
        params_coset_union(3, 2_000_000, 1, 2, 1, 0, 1)


def test_gaussian_period_closed_form_examples():
    F9 = canonical_field(3, 2)
    assert gaussian_period_semiprimitive(3, 2, 2, 1) == 1
    assert gaussian_period_semiprimitive(3, 2, 2, min(F9.nonsquares())) == -2
    assert gaussian_period_semiprimitive(5, 2, 3, 1) == 3
    with pytest.raises(NotSemiprimitive):
        gaussian_period_semiprimitive(3, 2, 5, 1)


def test_gaussian_period_odd_branch():
    # p=3, s=2, t=4: j=1 (4 | 4), r=1, (p+1)/t = 1 odd -> shifted-coset branch
    info = semiprimitive_check(3, 2, 4)
    assert info is not None and (info.j, info.r) == (1, 1)
    for a in range(1, 9):
        assert gaussian_period_semiprimitive(3, 2, 4, a) == gaussian_period(3, 2, 4, a)


def test_gaussian_period_at_zero_is_the_subgroup_order():
    # eta_0 sums zeta^0 over H_t, in both branches of the closed form
    cases = [(p, s, t) for p, s in ((3, 2), (3, 4), (5, 2), (7, 2)) for t in range(2, p ** s)
             if semiprimitive_check(p, s, t) is not None]
    assert len(cases) > 10
    for p, s, t in cases:
        order = CyclotomicInt.from_int(p, (p ** s - 1) // t)
        assert gaussian_period_semiprimitive(p, s, t, 0) == gaussian_period(p, s, t, 0) == order


def test_verify_bruteforce_on_xy_preimages():
    sp = XY.function.domain
    D1 = preimage(XY.function, {1})
    assert verify_pds_bruteforce(sp, D1).as_tuple() == (9, 2, 1, 0)
    D0 = zero_preimage(XY.function)
    assert verify_pds_bruteforce(sp, D0).as_tuple() == (9, 4, 1, 2)


def test_verify_bruteforce_degenerate_sets():
    sp = XY.function.domain
    assert verify_pds_bruteforce(sp, frozenset()).as_tuple() == (9, 0, 0, 0)
    whole = frozenset(range(1, 9))
    assert verify_pds_bruteforce(sp, whole).as_tuple() == (9, 8, 7, 0)


def test_verify_bruteforce_rejects_bad_candidates():
    sp = XY.function.domain
    with pytest.raises(ContainsZero):
        verify_pds_bruteforce(sp, {0, 1})
    with pytest.raises(NotSymmetric):
        verify_pds_bruteforce(sp, {join(sp, (1, 0))})


def test_verifiers_reject_repeated_members():
    # counted with its repeats, the list gave k = 8 for a 4-element set
    sp = prime_space(3, 2)
    members = [1, 2, 3, 6]
    assert verify_pds_bruteforce(sp, members).as_tuple() == (9, 4, 1, 2)
    with pytest.raises(ValueError):
        verify_pds_bruteforce(sp, members * 2)
    with pytest.raises(ValueError):
        verify_pds_characters(sp, members * 2, PdsParams(9, 4, 1, 2))


@pytest.mark.parametrize("verifier", ["pair counter", "characters"])
@pytest.mark.parametrize("members", [{1.5, 2}, {True, 2}, [1, 2.0], np.array([1.0, 2.0])],
                         ids=["float", "bool", "float in a list", "float array"])
def test_verifiers_reject_members_that_are_not_integers(verifier, members):
    # np.fromiter took 1.5 and True for 1, and both verifiers then verified {1, 2}
    sp = prime_space(3, 2)
    with pytest.raises(ValueError, match="integer ranks"):
        if verifier == "pair counter":
            verify_pds_bruteforce(sp, members)
        else:
            verify_pds_characters(sp, members, PdsParams(9, 2, 1, 0))
    assert verify_pds_bruteforce(sp, {1, np.int64(2)}).as_tuple() == (9, 2, 1, 0)


@pytest.mark.parametrize("verifier", ["pair counter", "characters"])
def test_verifiers_reject_a_preimage_set_from_another_group(verifier):
    # 3^4 ranks would index past the negation table of 3^2, and 3^2 ranks
    # are no set of 3^4 or 5^2 points
    big = zero_preimage(mm_power(3, 2, 1, 1, 1).function)
    small = zero_preimage(XY.function)
    for D, sp in ((big, XY.function.domain), (small, prime_space(3, 4)),
                  (small, prime_space(5, 2))):
        with pytest.raises(ValueError):
            if verifier == "pair counter":
                verify_pds_bruteforce(sp, D)
            else:
                verify_pds_characters(sp, D, PdsParams(sp.size, len(D), 1, 2))
    # one group up to the order of its factors: GF(9) against GF(3)^2
    same = zero_preimage(quad_trace(3, 2, 2, 1).function)
    assert same.group != XY.function.domain
    if verifier == "pair counter":
        assert verify_pds_bruteforce(XY.function.domain, same) == verify_pds_bruteforce(
            same.group, same)
    else:
        params = verify_pds_bruteforce(same.group, same)
        assert verify_pds_characters(XY.function.domain, same, params)


def test_verify_bruteforce_detects_non_pds():
    # {x, -x, y, -y} with unbalanced differences in F_3^4
    sp = prime_space(3, 4)
    D = {1, sp.negate(1), 3, sp.negate(3), 4, sp.negate(4)}
    assert verify_pds_bruteforce(sp, D) is None


# every p^dim <= 7^4, so q2 = 1 at dim = 1 and q1 != q2 at odd dim; at
# p = 13 the orbit group S can have order 2, 4, 6 or 12
COUNT_SPACES = [prime_space(p, dim) for p in (3, 5, 7, 13) for dim in range(1, 7)
                if p ** dim <= 7 ** 4]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_counts_equal_gather_counts(data):
    """Both pair-count routes give the same difference counts on any set,
    symmetric or not, with or without 0, sparse or dense.  The set is closed
    under a random subgroup H of GF(p)^*, which need not contain -1, and
    the dense route's orbit group is exactly {+-1} . {lam : lam D = D}."""
    sp = data.draw(st.sampled_from(COUNT_SPACES), label="space")
    p, dim = sp.p, sp.dim
    order = data.draw(st.sampled_from([h for h in range(1, p) if (p - 1) % h == 0]), label="|H|")
    size = data.draw(st.integers(1, sp.size), label="size")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    with_zero = data.draw(st.booleans(), label="0 in D")
    g = pow(canonical_field(p, 1).primitive_element, (p - 1) // order, p)
    drawn = np.random.default_rng(seed).choice(sp.size, size, replace=False)
    ranks = np.arange(sp.size)
    Dv = np.unique(np.concatenate([sp.gather_scaled(ranks, g ** k)[drawn] for k in range(order)]))
    Dv = np.union1d(Dv, [0]) if with_zero else Dv[Dv != 0]
    assume(Dv.size)
    assert np.array_equal(pds._dense_counts(sp, Dv), pds._gather_counts(sp, Dv))

    h1 = (dim + 1) // 2
    q1 = p ** h1
    M = np.zeros((p ** (dim - h1), q1), dtype=np.float32)
    M[Dv // q1, Dv % q1] = 1
    members, mirror = set(Dv.tolist()), set(sp.neg[Dv].tolist())
    expected = [lam for lam in range(1, p)
                if set(sp.gather_scaled(ranks, lam)[Dv].tolist()) in (members, mirror)]
    assert pds._orbit_group(p, h1, dim - h1, M, Dv // q1, Dv % q1) == expected
    assert {g ** k % p for k in range(order)} <= set(expected)


# (p, width) for the pair counter's digit tables, width 0 included
DIGIT_TABLE_CASES = [(3, 0), (3, 1), (3, 2), (3, 4), (5, 0), (5, 1), (5, 2), (7, 2), (13, 1)]


@pytest.mark.parametrize("p,width", DIGIT_TABLE_CASES)
def test_digit_tables_equal_a_per_digit_oracle(p, width):
    """_half_sub_table[x, y] subtracts digit by digit, and _scaling[x]
    multiplies every digit by lam, both computed here with divmod alone."""
    q = p ** width

    def digits(x):
        return [x // p ** k % p for k in range(width)]

    def from_digits(ds):
        return sum(d * p ** k for k, d in enumerate(ds))

    expected = np.array([[from_digits((a - b) % p for a, b in zip(digits(x), digits(y)))
                          for y in range(q)] for x in range(q)], dtype=np.int64)
    table = pds._half_sub_table(p, width)
    assert table.dtype == np.int64 and np.array_equal(table, expected)
    for lam in range(1, p):
        scaled = pds._scaling(p, width, lam)
        expected = [scalar_mul(prime_space(p, width), lam, x) for x in range(q)] if width else [0]
        assert scaled.dtype == np.int64 and scaled.tolist() == expected


def test_digit_subtraction_table_peaks_near_its_own_size():
    """Built one digit at a time, the (q, q) table at (3, 6) needs no
    (q, q, width) temporary: its peak stays within 1.5 times its size."""
    tracemalloc.start()
    try:
        table = pds._half_sub_table.__wrapped__(3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes, (peak, table.nbytes)


def _refuse(*args):
    raise AssertionError("a route that must not run was called")


def test_pair_count_route_follows_set_density(monkeypatch):
    sparse = zero_preimage(mm_power(3, 4, 4, 1, 1).function)  # 16 * 160 < 6561
    dense = zero_preimage(XY.function)                        # 16 * 4 >= 9
    with monkeypatch.context() as m:
        m.setattr(pds, "_dense_counts", _refuse)
        assert verify_pds_bruteforce(sparse.group, sparse).as_tuple() == (6561, 160, 79, 2)
    with monkeypatch.context() as m:
        m.setattr(pds, "_gather_counts", _refuse)
        assert verify_pds_bruteforce(dense.group, dense).as_tuple() == (9, 4, 1, 2)


def test_both_verifiers_refuse_groups_over_the_point_cap(monkeypatch):
    # the pair counter is capped on p^n like the transform, not on |D|
    D = zero_preimage(mm_power(3, 2, 2, 1, 1).function)
    params = verify_pds_bruteforce(D.group, D)
    assert params is not None and len(D) < 80
    monkeypatch.setenv("BENT_SIZE_CAP", "80")
    with pytest.raises(SizeGuard):
        verify_pds_bruteforce(D.group, D)
    with pytest.raises(SizeGuard):
        verify_pds_characters(D.group, D, params)


def test_dense_counts_refuse_inexact_float32():
    # 3^16 high-digit values: a product entry could pass 2^24
    with pytest.raises(SizeGuard):
        pds._dense_counts(prime_space(3, 32), np.array([1, 2]))


def test_verify_characters_on_xy_preimages():
    sp = XY.function.domain
    D1 = preimage(XY.function, {1})
    assert verify_pds_characters(sp, D1, PdsParams(9, 2, 1, 0))
    assert not verify_pds_characters(sp, D1, PdsParams(9, 2, 1, 1))
    assert not verify_pds_characters(sp, D1, PdsParams(9, 3, 1, 0))


def test_verify_characters_rejects_sums_beyond_k_without_a_warning():
    # beta = 10^40 and Delta = beta^2: r1 = 10^40 overflows every float dtype
    sp = XY.function.domain
    D1 = preimage(XY.function, {1})
    assert not verify_pds_characters(sp, D1, PdsParams(9, 2, 10 ** 40 + 2, 2))


def test_verify_characters_whole_punctured_group():
    sp = prime_space(3, 2)
    D = frozenset(range(1, 9))
    assert verify_pds_characters(sp, D, PdsParams(9, 8, 7, 0))


def test_verify_characters_empty_set():
    # lambda is vacuous and mu = 0, as the pair counter reports
    sp = prime_space(3, 2)
    assert verify_pds_bruteforce(sp, frozenset()) == PdsParams(9, 0, 0, 0)
    assert verify_pds_characters(sp, frozenset(), PdsParams(9, 0, 5, 0))
    assert not verify_pds_characters(sp, frozenset(), PdsParams(9, 0, 0, 1))


def test_verify_characters_decides_non_square_delta_in_the_ring(monkeypatch):
    # the quadratic residues mod 5 form a genuine (5, 2, 0, 1) PDS whose
    # character sums are irrational: Delta = 5 = p* 1^2, so sqrt(Delta) is
    # the Gauss sum g and 2 chi(D) = beta +- g is compared in Z[zeta_5]
    sp = prime_space(5, 1)
    D = frozenset({1, 4})
    good = PdsParams(5, 2, 0, 1)
    assert good.delta == 5
    # the Paley set: the squares of GF(125), the l = 4 coset preimage of x^2
    paley = coset_preimage(quad_trace(5, 3, 3, 1).function, 4, 1)
    big = paley.group
    paley_params = PdsParams(125, 62, 30, 31)
    assert paley_params.delta == 5 * 5 ** 2
    assert verify_pds_bruteforce(big, paley) == paley_params
    # one pair {x, -x} toggled out and one toggled in: same k, not a PDS
    x = min(paley.members)
    y = min(set(range(1, big.size)) - paley.members)
    swapped = (paley.members - {x, big.negate(x)}) | {y, big.negate(y)}
    assert verify_pds_bruteforce(big, swapped) is None

    # from here on, no difference may be counted
    for name in ("verify_pds_bruteforce", "_dense_counts", "_gather_counts"):
        monkeypatch.setattr(pds, name, _refuse)
    assert verify_pds_characters(sp, D, good)
    assert not verify_pds_characters(sp, D, PdsParams(5, 2, 1, 1))
    assert not verify_pds_characters(sp, D, PdsParams(5, 2, 0, 0))  # Delta = 8, not p* d^2
    assert verify_pds_characters(big, paley, paley_params)
    assert not verify_pds_characters(big, swapped, paley_params)
    assert not verify_pds_characters(big, paley, PdsParams(125, 62, 31, 30))


def test_verify_characters_rejects_non_rational_sums():
    # chi_u({1, 4}) = zeta^u + zeta^-u is not rational, yet its constant
    # coefficient in the {1, ..., zeta^3} basis is 0 or -1: exactly r1 and r2
    # of the wrong candidate (5, 2, 1, 2), whose Delta = 1 is a square
    sp = prime_space(5, 1)
    D = frozenset({1, 4})
    wrong = PdsParams(5, 2, 1, 2)
    assert wrong.delta == 1
    assert verify_pds_bruteforce(sp, D).as_tuple() == (5, 2, 0, 1)
    assert not verify_pds_characters(sp, D, wrong)


VERIFIER_SPACES = [
    prime_space(3, 2),
    prime_space(3, 3),
    Space([canonical_field(3, 2), canonical_field(3, 1)]),
    prime_space(3, 4),
    prime_space(5, 2),
    prime_space(5, 3),
    Space([canonical_field(7, 2)]),
    prime_space(13, 1),
]


def _lam_mu(k: int, beta: int, delta: int) -> tuple[int, int]:
    """(lambda, mu) with lambda - mu = beta and beta^2 + 4 (k - mu) = delta."""
    mu = k - (delta - beta * beta) // 4
    return beta + mu, mu


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verifiers_agree_on_random_symmetric_sets(data):
    """Pair counting and the character criterion give the same verdict on
    any symmetric set, PDS or not, and any candidate parameters; candidates
    built from integer roots r1, r2, or with Delta = p d^2 (p* d^2 at
    p = 1 mod 4, decided in Z[zeta_p]), reach the character route."""
    sp = data.draw(st.sampled_from(VERIFIER_SPACES), label="space")
    reps = sorted({min(x, sp.negate(x)) for x in range(1, sp.size)})
    chosen = data.draw(st.lists(st.sampled_from(reps), unique=True), label="reps")
    D = frozenset(chosen) | frozenset(sp.negate(x) for x in chosen)
    k = len(D)
    observed = verify_pds_bruteforce(sp, D)
    if observed is not None:
        assert verify_pds_characters(sp, D, observed)
    lam, mu = data.draw(st.one_of(
        st.tuples(st.integers(0, k), st.integers(0, k)),
        st.tuples(st.integers(-k, k), st.integers(-k, k)).map(
            lambda r: (r[0] + r[1] + k + r[0] * r[1], k + r[0] * r[1])),
        st.tuples(st.integers(-k, k), st.integers(0, k)).map(
            lambda r: _lam_mu(k, r[0], sp.p * (2 * r[1] + r[0] % 2) ** 2)),
    ), label="lambda, mu")
    candidate = PdsParams(sp.size, k, lam, mu)
    expected = observed is not None and params_match(candidate, observed)
    assert verify_pds_characters(sp, D, candidate) == expected


def test_params_match_wildcards():
    assert params_match(PdsParams(9, 0, 99, 0), PdsParams(9, 0, 0, 0))
    assert params_match(PdsParams(9, 8, 7, 42), PdsParams(9, 8, 7, 0))
    assert not params_match(PdsParams(9, 2, 1, 0), PdsParams(9, 2, 0, 0))


def test_formula_and_both_verifiers_agree_on_squares_preimage():
    pair = mm_power(3, 2, 1, 1, 1)
    F = pair.function
    sp = F.domain
    DS = squares_preimage(F)
    DN = nonsquares_preimage(F)
    predicted = params_subset(3, 4, 1, 1, False, 1)
    for D in (DS, DN):
        observed = verify_pds_bruteforce(sp, D)
        assert observed is not None and params_match(predicted, observed)
        assert verify_pds_characters(sp, D, predicted)


@pytest.mark.parametrize(
    "pair",
    [quad_trace(5, 4, 2, 1), None],
    ids=["quad-5^4", "diag-5^4"],
)
def test_semiprimitive_coset_block_end_to_end_at_p5(pair):
    # the semiprimitive block at (p, s, t) = (5, 2, 3) on 5^4-point groups
    if pair is None:
        from bentpds.constructions import diag_quad

        pair = diag_quad(5, 2, 2, (1, 2))
    F = pair.function
    sp, sub = F.domain, F.codomain
    cert = dual_bent_certificate(F, pair.dual)
    assert cert is not None and cert.sigma == pair.sigma
    eps_vals = set(cert.epsilons.values())
    assert len(eps_vals) == 1
    eps = eps_vals.pop()
    assert semiprimitive_check(5, 2, 3) is not None
    assert sigma_predicates(sub, cert.sigma, 3).coset_permuting
    predicted = params_coset_union(5, 4, 2, 8, 1, 0, eps)
    w = sub.primitive_element
    for i in range(3):
        D = coset_preimage(F, 3, sub.pow(w, i))
        observed = verify_pds_bruteforce(sp, D)
        assert observed is not None and params_match(predicted, observed)
        assert verify_pds_characters(sp, D, predicted)
    union = coset_preimage(F, 3, 1).union(coset_preimage(F, 3, w))
    predicted_union = params_coset_union(5, 4, 2, 8, 2, 0, eps)
    observed_union = verify_pds_bruteforce(sp, union)
    assert observed_union is not None and params_match(predicted_union, observed_union)
    assert verify_pds_characters(sp, union, predicted_union)


def test_preimages_inherit_symmetry():
    # -D = D whenever the source satisfies F(-x) = F(x)
    for pair in (XY, quad_trace(3, 4, 2, 1)):
        F = pair.function
        sp = F.domain
        for D in (zero_preimage(F), squares_preimage(F), coset_preimage(F, 2, 1)):
            assert 0 not in D.members
            assert {sp.negate(x) for x in D.members} == set(D.members)


def test_coset_preimage_union_block():
    pair = mm_power(3, 2, 1, 1, 1)
    F = pair.function
    sp = F.domain
    # l = 1: the whole multiplicative group as one coset
    D = coset_preimage(F, 1, 1)
    predicted = params_coset_union(3, 4, 1, 2, 1, 0, 1)
    observed = verify_pds_bruteforce(sp, D)
    assert observed is not None and params_match(predicted, observed)
    D_union = zero_preimage(F).union(D)
    predicted_union = params_coset_union(3, 4, 1, 2, 1, 1, 1)
    observed_union = verify_pds_bruteforce(sp, D_union)
    assert observed_union is not None and params_match(predicted_union, observed_union)
    assert verify_pds_characters(sp, D_union, predicted_union)
