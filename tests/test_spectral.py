import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentpds import spectral
from bentpds.cyclo import CyclotomicInt, automorphism, conj_norm, conjugate, gauss_sum
from bentpds.errors import MatchFailure, NotBent, PreconditionF0, SizeGuard, ZeroComponent
from bentpds.field import canonical_field
from bentpds.limits import exact_float_dtype
from bentpds.space import Space, prime_space
from bentpds.spectral import (
    DualBentCertificate,
    VectorialFunction,
    anf,
    classify_bent,
    component,
    dual_bent_certificate,
    evaluate_anf,
    flatten_domain,
    is_vectorial_bent,
    lform_exponents,
    lform_converse_check,
    walsh_full,
    walsh_naive,
    _candidate_map,
    _conj_products,
    _match_candidates,
)

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)


def p_ary(sp, table):
    return VectorialFunction(sp, canonical_field(sp.p, 1), table)


def xy_function(p=3):
    sp = prime_space(p, 2)
    return p_ary(sp, [(sp.split(r)[0] * sp.split(r)[1]) % p for r in range(sp.size)])


def quad_on_field(field, a=1, s=1):
    sp = Space([field])
    return p_ary(sp, [field.trace(s, field.mul(a, field.mul(x, x))) for x in range(field.size)])


def test_walsh_of_zero_function_on_v1():
    f = p_ary(prime_space(3, 1), [0, 0, 0])
    spectrum = walsh_full(f)
    assert spectrum[0] == 3
    assert spectrum[1].is_zero() and spectrum[2].is_zero()


@pytest.mark.parametrize("sp", [prime_space(3, 3), Space([F9]), prime_space(5, 2)])
def test_walsh_of_zero_function_peaks_at_origin(sp):
    spectrum = walsh_full(p_ary(sp, [0] * sp.size))
    assert spectrum[0] == sp.size
    assert all(spectrum[a].is_zero() for a in range(1, sp.size))


def test_xy_spectrum_is_flat():
    spectrum = walsh_full(xy_function())
    assert all(conj_norm(spectrum[a]) == 9 for a in range(9))
    assert spectrum.parseval_ok()


def test_xy_classification():
    cl = classify_bent(xy_function())
    assert cl.is_bent and cl.weakly_regular and cl.regular and cl.epsilon == 1
    sp = cl.dual.domain
    for r in range(9):
        a, b = sp.split(r)
        assert cl.dual(r) == (-a * b) % 3


def test_zero_function_is_not_bent():
    cl = classify_bent(p_ary(prime_space(3, 2), [0] * 9))
    assert not cl.is_bent and cl.dual is None and cl.epsilon is None


def test_odd_dimension_bent_matches_gauss_candidates():
    f = p_ary(prime_space(3, 1), [0, 1, 1])  # x^2 mod 3
    cl = classify_bent(f)
    assert cl.is_bent and cl.weakly_regular
    # W(a) = +-g zeta^j exactly; |W|^2 = 3 for every a
    assert all(conj_norm(cl.spectrum[a]) == 3 for a in range(3))


def _random_table(sp, seed):
    rng = random.Random(seed)
    return [rng.randrange(sp.p) for _ in range(sp.size)]


FAST_VS_NAIVE_SPACES = [
    prime_space(3, 1),
    prime_space(3, 2),
    prime_space(3, 4),
    Space([F9]),
    Space([F9, F3]),
    Space([canonical_field(3, 3), F3]),
    Space([F9, F9]),
    prime_space(5, 2),
    Space([canonical_field(5, 2)]),
    prime_space(7, 2),
    Space([canonical_field(7, 2)]),
    prime_space(5, 3),
    prime_space(11, 2),
    prime_space(13, 2),
    prime_space(17, 2),
    prime_space(211, 1),
]


@pytest.mark.parametrize("sp", FAST_VS_NAIVE_SPACES, ids=lambda s: f"p{s.p}n{s.dim}")
def test_fast_transform_equals_naive(sp):
    tables = [[0] * sp.size, _random_table(sp, 11), _random_table(sp, 23)]
    for tab in tables:
        f = p_ary(sp, tab)
        fast = walsh_full(f)
        naive = walsh_naive(f)
        for a in range(sp.size):
            assert fast[a] == naive[a]
        assert fast.parseval_ok()


# mixed prime and extension factors, up to 3^4, 5^2 and 7^2 points
PROPERTY_SPACES = [
    Space([F3, F9]),
    Space([F9, F3]),
    Space([F3, F9, F3]),
    Space([F3, canonical_field(3, 3)]),
    Space([canonical_field(3, 4)]),
    Space([canonical_field(5, 1), canonical_field(5, 1)]),
    Space([canonical_field(5, 2)]),
    Space([canonical_field(7, 1), canonical_field(7, 1)]),
    Space([canonical_field(7, 2)]),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fast_transform_equals_naive_on_random_tables(data):
    sp = data.draw(st.sampled_from(PROPERTY_SPACES), label="space")
    table = data.draw(
        st.lists(st.integers(0, sp.p - 1), min_size=sp.size, max_size=sp.size), label="table"
    )
    f = p_ary(sp, table)
    fast, naive = walsh_full(f), walsh_naive(f)
    assert all(fast[a] == naive[a] for a in range(sp.size))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conj_products_equal_scalar_norm_products(p):
    rng = np.random.default_rng(p)
    rows = rng.integers(-50, 51, size=(40, p - 1))
    rows[0] = 0
    got = _conj_products(rows, p)
    for row, prod in zip(rows, got):
        a = CyclotomicInt(p, row)
        assert tuple(prod.tolist()) == (a * conjugate(a)).coeffs


def test_fast_transform_equals_naive_at_3_pow_6():
    sp = Space([canonical_field(3, 3), canonical_field(3, 3)])
    F27 = canonical_field(3, 3)
    tab = [
        F27.trace(1, F27.mul(sp.split(r)[0], sp.split(r)[1]))
        for r in range(sp.size)
    ]
    f = p_ary(sp, tab)
    fast = walsh_full(f)
    naive = walsh_naive(f)
    assert all(fast[a] == naive[a] for a in range(sp.size))


def test_component_examples():
    f = xy_function()
    assert component(f, 1) == f
    assert np.array_equal(component(f, 2).table, (2 * f.table) % 3)
    with pytest.raises(ZeroComponent):
        component(f, 0)
    # F(x) = x on F_9, s = 2: component 1 is the absolute trace
    sp9 = Space([F9])
    idf = VectorialFunction(sp9, F9, list(range(9)))
    comp = component(idf, 1)
    assert comp(3) == 0  # Tr(x) = 0
    assert comp(1) == 2  # Tr(1) = 2


def test_component_rejects_out_of_range_index():
    from bentpds.constructions import mm_power

    F = mm_power(3, 2, 2, 1, 1).function
    for c in (-1, 9):
        with pytest.raises(ValueError):
            component(F, c)


def test_p_ary_routines_refuse_wider_codomains():
    from bentpds.constructions import mm_power

    F = mm_power(3, 2, 2, 1, 1).function  # s = 2, F(0) = 0
    for routine in (walsh_full, walsh_naive, classify_bent, anf, lform_exponents,
                    lform_converse_check):
        with pytest.raises(ValueError, match="s = 1"):
            routine(F)


def test_is_vectorial_bent():
    from bentpds.constructions import mm_power, quad_trace

    assert is_vectorial_bent(mm_power(3, 2, 1, 1, 1).function)
    assert is_vectorial_bent(quad_trace(3, 2, 2, 1).function)
    zero = VectorialFunction(prime_space(3, 2), F3, [0] * 9)
    assert not is_vectorial_bent(zero)


def test_certificate_rejects_wrong_dual():
    from bentpds.constructions import mm_power

    pair = mm_power(3, 2, 1, 1, 1)
    zero = VectorialFunction(pair.function.domain, pair.function.codomain,
                             [0] * pair.function.domain.size)
    assert dual_bent_certificate(pair.function, zero) is None


def test_anf_examples():
    assert anf(p_ary(prime_space(3, 1), [0, 1, 1])) == {(2,): 1}
    assert anf(xy_function()) == {(1, 1): 1}
    assert anf(p_ary(prime_space(5, 1), [2] * 5)) == {(0,): 2}


def test_anf_needs_prime_space():
    f = quad_on_field(F9)
    with pytest.raises(ValueError):
        anf(f)
    flat = flatten_domain(f)
    coeffs = anf(flat)
    assert coeffs  # nonzero polynomial


@pytest.mark.parametrize("p,n,seed", [(3, 3, 5), (3, 4, 6), (5, 2, 7), (7, 2, 8)])
def test_anf_round_trip(p, n, seed):
    sp = prime_space(p, n)
    f = p_ary(sp, _random_table(sp, seed))
    coeffs = anf(f)
    for x in range(sp.size):
        assert evaluate_anf(p, coeffs, sp.digits(x)) == f(x)
    assert all(max(e) <= p - 1 for e in coeffs)


def test_ternary_symmetric_functions_are_2_forms():
    # at p = 3 the scalars are {1, -1}, so f(-x) = f(x) makes f a 2-form
    rng = random.Random(99)
    sp = prime_space(3, 3)
    table = [0] * sp.size
    for x in range(sp.size):
        v = rng.randrange(3)
        table[x] = table[sp.negate(x)] = v
    assert 2 in lform_exponents(p_ary(sp, table))


def test_lform_examples():
    assert lform_exponents(xy_function()) == {2}
    assert lform_exponents(p_ary(prime_space(3, 2), [0] * 9)) == {1, 2}
    assert lform_exponents(p_ary(prime_space(5, 1), [0, 1, 4, 4, 1])) == {2}
    zero5 = p_ary(prime_space(5, 1), [0] * 5)
    assert lform_exponents(zero5) == {1, 2, 3, 4}


def test_lform_converse_on_xy():
    rep = lform_converse_check(xy_function())
    assert rep.applicable and rep.passed and rep.valid_exponent == 2
    assert not rep.counterexample


def test_lform_converse_on_trace_quadratic():
    rep = lform_converse_check(quad_on_field(F9))
    assert rep.applicable and rep.passed and rep.valid_exponent == 2


def test_lform_converse_not_applicable_for_zero():
    rep = lform_converse_check(p_ary(prime_space(3, 2), [0] * 9))
    assert not rep.applicable and rep.reason == "not bent"


def test_lform_converse_requires_f0_zero():
    with pytest.raises(PreconditionF0):
        lform_converse_check(p_ary(prime_space(3, 2), [1] * 9))


def _bent_instances():
    from bentpds.constructions import diag_quad, mm_power, quad_trace, spread_bent

    return [
        xy_function(),
        quad_on_field(F9),
        quad_on_field(F9, a=4),
        mm_power(5, 1, 1, 1, 1).function,
        diag_quad(3, 1, 2, (1, 2)).function,
        spread_bent(3, 2, 1).function,
        quad_on_field(canonical_field(7, 1)),
    ]


def test_scaling_automorphism_identity():
    # W_{cf}(a) = phi_c(W_f(c^{-1} a)) for every scalar c != 0
    for f in _bent_instances():
        sp, p = f.domain, f.p
        base = walsh_full(f)
        for c in range(1, p):
            scaled = walsh_full(p_ary(sp, (c * f.table) % p))
            cinv = pow(c, -1, p)
            for a in range(sp.size):
                expected = automorphism(c, base[sp.scalar_mul(cinv, a)])
                assert scaled[a] == expected


def test_dual_of_dual_is_negated_argument():
    for f in _bent_instances():
        cl = classify_bent(f)
        assert cl.is_bent and cl.weakly_regular
        cl2 = classify_bent(cl.dual)
        assert cl2.is_bent
        sp = f.domain
        assert all(cl2.dual(x) == f(sp.negate(x)) for x in range(sp.size))


@pytest.mark.parametrize("p, dim", [(3, 6), (7, 3), (17, 2)])
def test_digit_transform_float64_equals_float32(p, dim):
    # tier-1 spaces all take float32; the float64 passes must agree with it
    N = p ** dim
    table = np.array(_random_table(prime_space(p, dim), 5))
    slabs = {}
    for dtype in (np.float32, np.float64):
        C = np.zeros((N, p), dtype=dtype)
        C[np.arange(N), table] = 1
        slabs[dtype] = spectral._digit_transform(C, p, dim)
        assert slabs[dtype].dtype == dtype
    assert np.array_equal(slabs[np.float32], slabs[np.float64])


@pytest.mark.parametrize("p, dim", [(3, 5), (7, 3), (13, 2)])
def test_shift_pass_equals_dense_pass(p, dim):
    N = p ** dim
    C = np.zeros((N, p), dtype=np.float32)
    C[np.arange(N), np.array(_random_table(prime_space(p, dim), 7))] = 1
    dense, shifted = np.empty_like(C), np.empty_like(C)
    spectral._dense_pass(C, dense, p)
    spectral._shift_pass(C, shifted, p)
    assert np.array_equal(dense, shifted)


def test_large_prime_transform_builds_no_dense_matrix():
    # a (p, p^2, p) matrix at p = 211 would hold about 2e9 entries
    spectral._pass_matrix.cache_clear()
    sp = prime_space(211, 2)
    table = np.array(_random_table(sp, 3))
    table[0] = 0
    W = walsh_full(p_ary(sp, table))
    assert spectral._pass_matrix.cache_info().currsize == 0
    # W(0) = sum_x zeta^f(x), and sum_a W(a) = p^n zeta^f(0) = p^n
    counts = np.bincount(table, minlength=sp.p).tolist()
    assert W[0] == CyclotomicInt.from_exponent_counts(sp.p, counts)
    assert W.coeff_rows.sum(axis=0).tolist() == [sp.size] + [0] * (sp.p - 2)


def test_exact_float_dtype_boundaries():
    assert exact_float_dtype(2 ** 24 - 1) == np.float32
    assert exact_float_dtype(2 ** 24) == np.float64
    assert exact_float_dtype(2 ** 53 - 1) == np.float64
    with pytest.raises(SizeGuard):
        exact_float_dtype(2 ** 53)


def test_walsh_size_guard():
    sp = prime_space(3, 13)
    with pytest.raises(SizeGuard):
        walsh_full(p_ary(sp, np.zeros(sp.size, dtype=np.int64)))


def test_size_cap_override(monkeypatch):
    monkeypatch.setenv("BENT_SIZE_CAP", "10")
    sp = prime_space(3, 3)
    with pytest.raises(SizeGuard):
        walsh_full(p_ary(sp, [0] * 27))


def test_function_serialization_round_trip():
    f = xy_function()
    assert VectorialFunction.from_dict(f.to_dict()) == f
    F = quad_on_field(F9)
    d = F.to_dict()
    assert d["codomain"] == {"p": 3, "s": 1}
    assert VectorialFunction.from_dict(d) == F


# ---------------------------------------------------------------------------
# the per-component certificate oracle
# ---------------------------------------------------------------------------

def certificate_per_component(F, Fstar):
    """Reference for dual_bent_certificate: classify every component and scan
    every Fstar component for its dual, with no orbit derivation."""
    q = F.codomain.size
    star_tables = {d: component(Fstar, d).table for d in range(1, q)}
    sigma, epsilons = {}, {}
    for c in range(1, q):
        cl = classify_bent(component(F, c))
        if not cl.is_bent:
            raise NotBent(f"component {c} is not bent")
        matches = [d for d in range(1, q) if np.array_equal(cl.dual.table, star_tables[d])]
        if len(matches) != 1:
            return None
        sigma[c] = matches[0]
        epsilons[c] = cl.epsilon
    if len(set(sigma.values())) != q - 1:
        return None
    return DualBentCertificate(Fstar, sigma, epsilons)


def _outcome(certify, F, Fstar):
    """A comparable result: the certificate's items in order, None, or the
    NotBent message."""
    try:
        cert = certify(F, Fstar)
    except NotBent as exc:
        return ("NotBent", str(exc))
    if cert is None:
        return None
    assert cert.dual is Fstar
    return list(cert.sigma.items()), list(cert.epsilons.items())


def _oracle_pairs():
    from bentpds.constructions import (
        branched_quad_mm, diag_quad, mm_power, mm_qpoly, quad_trace, spread_bent,
    )

    return [
        mm_power(3, 2, 2, 1, 3),                       # 3^4, s = 2
        mm_power(5, 1, 1, 2, 1),                       # 5^2
        mm_power(5, 2, 2, 1, 1),                       # 5^4, s = 2
        mm_power(7, 1, 1, 3, 5),                       # 7^2
        mm_qpoly(3, 2, 2, 1, (1,)),                    # 3^4, s = 2
        mm_qpoly(5, 2, 1, 2, (0, 1)),                  # 5^4
        quad_trace(3, 5, 1, 1),                        # odd n, mixed signs
        quad_trace(3, 4, 2, 1),                        # s = 2
        quad_trace(5, 2, 1, 1),
        quad_trace(5, 3, 1, 2),                        # odd n, mixed signs
        quad_trace(5, 3, 3, 2),                        # odd n, s = 3
        quad_trace(7, 3, 1, 3),                        # odd n, mixed signs
        diag_quad(3, 2, 2, (1, 4)),                    # s = 2
        diag_quad(5, 1, 3, (1, 2, 3)),                 # odd n, mixed signs
        diag_quad(7, 1, 1, (3,)),                      # n = 1
        spread_bent(3, 2, 2),
        spread_bent(5, 1, 1),
        branched_quad_mm(3, 2, 1, 1, 1, 2, 4, 1, 2),   # not weakly regular
        branched_quad_mm(5, 1, 1, 1, 1, 2, 1, 1, 1),   # odd n, not weakly regular
        branched_quad_mm(3, 2, 2, 2, 1, 1, 1, 1, 1),   # s = 2
    ]


@pytest.mark.parametrize("pair", _oracle_pairs(), ids=lambda pair: f"{pair.family} {pair.params}")
def test_certificate_equals_per_component_oracle(pair):
    F, Fstar = pair.function, pair.dual
    derived = _outcome(dual_bent_certificate, F, Fstar)
    assert derived == _outcome(certificate_per_component, F, Fstar)
    assert derived is not None and dict(derived[0]) == pair.sigma
    if pair.epsilons is not None:
        assert dict(derived[1]) == pair.epsilons


def _wrong_duals(F, Fstar, other):
    """Fstar replaced by another instance's dual, or composed with a
    permutation that is not x -> lambda x on the domain or the codomain."""
    rng = np.random.default_rng(F.domain.size)
    cod, dom = F.codomain, F.domain
    shuffled = np.concatenate([[0], 1 + rng.permutation(cod.size - 1)])
    out = [
        other,
        VectorialFunction(dom, cod, Fstar.table[rng.permutation(dom.size)]),
        VectorialFunction(dom, cod, Fstar.table[dom.scaled(2)][dom.neg]),
        VectorialFunction(dom, cod, shuffled[Fstar.table]),
    ]
    if cod.m > 1:
        # x -> beta x with beta outside GF(p): certifies with another sigma
        out.append(VectorialFunction(dom, cod, cod.mul(cod.p, Fstar.table)))
    return out


def test_certificate_equals_oracle_on_wrong_duals():
    from bentpds.constructions import mm_power, quad_trace

    cases = [
        (mm_power(3, 2, 2, 1, 1), mm_power(3, 2, 2, 1, 3).dual),
        (mm_power(5, 1, 1, 1, 1), mm_power(5, 1, 1, 2, 1).dual),
        (quad_trace(5, 3, 1, 2), quad_trace(5, 3, 1, 1).dual),
        (quad_trace(7, 3, 1, 3), quad_trace(7, 3, 1, 1).dual),
        (quad_trace(5, 3, 3, 2), quad_trace(5, 3, 3, 1).dual),
    ]
    outcomes = []
    for pair, other in cases:
        for Fstar in _wrong_duals(pair.function, pair.dual, other):
            derived = _outcome(dual_bent_certificate, pair.function, Fstar)
            assert derived == _outcome(certificate_per_component, pair.function, Fstar)
            outcomes.append(derived)
    # both kinds of result occur: rejected, and certified with another sigma
    assert None in outcomes
    assert any(o is not None and dict(o[0]) != cases[0][0].sigma for o in outcomes)


def _bent_then_zero(p=5):
    """F: GF(p)^2 -> GF(p^2) whose component a + b theta (c = a + b p) is
    a f for the bent f = xy, so every c < p is bent and c = p is the first
    component that is not."""
    cod = canonical_field(p, 2)
    ranks = np.arange(cod.size)
    lookup = np.empty((p, p), dtype=np.int64)
    lookup[cod.trace(1, ranks), cod.trace(1, cod.mul(p, ranks))] = ranks
    f = xy_function(p)
    other = np.arange(f.domain.size) % p
    F = VectorialFunction(f.domain, cod, lookup[f.table, 0])
    Fstar = VectorialFunction(f.domain, cod, lookup[(-f.table) % p, other])
    return F, Fstar


def test_first_non_bent_component_past_c_1():
    F, Fstar = _bent_then_zero()
    expected = ("NotBent", "component 5 is not bent")
    assert _outcome(certificate_per_component, F, Fstar) == expected
    assert _outcome(dual_bent_certificate, F, Fstar) == expected
    assert not is_vectorial_bent(F)
    zero = VectorialFunction(F.domain, F.codomain, np.zeros(F.domain.size, dtype=np.int64))
    assert _outcome(dual_bent_certificate, F, zero) is None
    assert _outcome(certificate_per_component, F, zero) is None


# ---------------------------------------------------------------------------
# the candidate matcher
# ---------------------------------------------------------------------------

MATCH_CASES = [(3, 1), (3, 2), (3, 3), (3, 12), (5, 2), (5, 3), (7, 1), (7, 4), (11, 3), (13, 2)]


def _candidates(p, n):
    """(rows, signs, js) of +-u zeta^j, built from the definition."""
    u = CyclotomicInt.from_int(p, p ** (n // 2)) if n % 2 == 0 else p ** (n // 2) * gauss_sum(p)
    items = [(sign, j) for j in range(p) for sign in (1, -1)]
    rows = np.array([(sign * u * CyclotomicInt.zeta_pow(p, j)).coeffs for sign, j in items])
    signs, js = map(np.array, zip(*items))
    return rows, signs, js


@pytest.mark.parametrize("p,n", MATCH_CASES)
def test_candidate_rows_match_themselves(p, n):
    rows, signs, js = _candidates(p, n)
    matched, got_signs, got_js = _match_candidates(rows, p, n)
    assert matched.all()
    assert (got_signs == signs).all() and (got_js == js).all()


@pytest.mark.parametrize("p,n", MATCH_CASES)
def test_perturbed_candidate_rows_match_nothing(p, n):
    rows = _candidates(p, n)[0]
    steps = np.concatenate([np.eye(p - 1, dtype=np.int64), -np.eye(p - 1, dtype=np.int64)])
    perturbed = (rows[:, None, :] + steps[None]).reshape(-1, p - 1)
    matched = _match_candidates(perturbed, p, n)[0]
    assert not matched.any()


def test_candidate_keys_are_checked_distinct(monkeypatch):
    class Zero:
        def __init__(self, seed):
            pass

        def getrandbits(self, k):
            return 0

    monkeypatch.setattr(spectral.random, "Random", Zero)
    with pytest.raises(MatchFailure, match="collide"):
        _candidate_map.__wrapped__(5, 2)


def test_classify_names_the_first_unmatched_value(monkeypatch):
    from bentpds.constructions import quad_trace

    f = quad_trace(5, 3, 1, 2).function
    true = walsh_full(f)
    norms = _conj_products(true.coeff_rows, 5)
    rows = true.coeff_rows.copy()
    rows[[17, 40], 1] += 1
    monkeypatch.setattr(spectral, "walsh_full", lambda g: spectral.WalshSpectrum(g.domain, rows))
    monkeypatch.setattr(spectral, "_conj_products", lambda A, p: norms)
    with pytest.raises(MatchFailure, match=r"a=17 "):
        classify_bent(f)
