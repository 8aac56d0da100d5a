import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentpds.cyclo import CyclotomicInt, automorphism, conj_norm, conjugate
from bentpds.errors import PreconditionF0, SizeGuard, ZeroComponent
from bentpds.field import canonical_field
from bentpds.space import Space, prime_space
from bentpds.spectral import (
    PAryFunction,
    VectorialFunction,
    anf,
    as_vectorial,
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
    _conj_products,
)

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)


def xy_function(p=3):
    sp = prime_space(p, 2)
    return PAryFunction(sp, [(sp.split(r)[0] * sp.split(r)[1]) % p for r in range(sp.size)])


def quad_on_field(field, a=1, s=1):
    sp = Space([field])
    return PAryFunction(sp, [field.trace(s, field.mul(a, field.mul(x, x))) for x in range(field.size)])


def test_walsh_of_zero_function_on_v1():
    f = PAryFunction(prime_space(3, 1), [0, 0, 0])
    spectrum = walsh_full(f)
    assert spectrum[0] == 3
    assert spectrum[1].is_zero() and spectrum[2].is_zero()


@pytest.mark.parametrize("sp", [prime_space(3, 3), Space([F9]), prime_space(5, 2)])
def test_walsh_of_zero_function_peaks_at_origin(sp):
    spectrum = walsh_full(PAryFunction(sp, [0] * sp.size))
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
    cl = classify_bent(PAryFunction(prime_space(3, 2), [0] * 9))
    assert not cl.is_bent and cl.dual is None and cl.epsilon is None


def test_odd_dimension_bent_matches_gauss_candidates():
    f = PAryFunction(prime_space(3, 1), [0, 1, 1])  # x^2 mod 3
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
]


@pytest.mark.parametrize("sp", FAST_VS_NAIVE_SPACES, ids=lambda s: f"p{s.p}n{s.dim}")
def test_fast_transform_equals_naive(sp):
    tables = [[0] * sp.size, _random_table(sp, 11), _random_table(sp, 23)]
    for tab in tables:
        f = PAryFunction(sp, tab)
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
    f = PAryFunction(sp, table)
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
    f = PAryFunction(sp, tab)
    fast = walsh_full(f)
    naive = walsh_naive(f)
    assert all(fast[a] == naive[a] for a in range(sp.size))


def test_component_examples():
    f = xy_function()
    F = as_vectorial(f)
    assert component(F, 1) == f
    assert np.array_equal(component(F, 2).table, (2 * f.table) % 3)
    with pytest.raises(ZeroComponent):
        component(F, 0)
    # F(x) = x on F_9, s = 2: component 1 is the absolute trace
    sp9 = Space([F9])
    idf = VectorialFunction(sp9, F9, list(range(9)))
    comp = component(idf, 1)
    assert comp(3) == 0  # Tr(x) = 0
    assert comp(1) == 2  # Tr(1) = 2


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
    assert anf(PAryFunction(prime_space(3, 1), [0, 1, 1])) == {(2,): 1}
    assert anf(xy_function()) == {(1, 1): 1}
    assert anf(PAryFunction(prime_space(5, 1), [2] * 5)) == {(0,): 2}


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
    f = PAryFunction(sp, _random_table(sp, seed))
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
    assert 2 in lform_exponents(PAryFunction(sp, table))


def test_lform_examples():
    assert lform_exponents(xy_function()) == {2}
    assert lform_exponents(PAryFunction(prime_space(3, 2), [0] * 9)) == {1, 2}
    assert lform_exponents(PAryFunction(prime_space(5, 1), [0, 1, 4, 4, 1])) == {2}
    zero5 = PAryFunction(prime_space(5, 1), [0] * 5)
    assert lform_exponents(zero5) == {1, 2, 3, 4}


def test_lform_converse_on_xy():
    rep = lform_converse_check(xy_function())
    assert rep.applicable and rep.passed and rep.valid_exponent == 2
    assert not rep.counterexample


def test_lform_converse_on_trace_quadratic():
    rep = lform_converse_check(quad_on_field(F9))
    assert rep.applicable and rep.passed and rep.valid_exponent == 2


def test_lform_converse_not_applicable_for_zero():
    rep = lform_converse_check(PAryFunction(prime_space(3, 2), [0] * 9))
    assert not rep.applicable and rep.reason == "not bent"


def test_lform_converse_requires_f0_zero():
    with pytest.raises(PreconditionF0):
        lform_converse_check(PAryFunction(prime_space(3, 2), [1] * 9))


def _bent_instances():
    from bentpds.constructions import diag_quad, mm_power, quad_trace, spread_bent

    return [
        xy_function(),
        quad_on_field(F9),
        quad_on_field(F9, a=4),
        mm_power(5, 1, 1, 1, 1).function.as_p_ary(),
        diag_quad(3, 1, 2, (1, 2)).function.as_p_ary(),
        spread_bent(3, 2, 1).function.as_p_ary(),
        quad_on_field(canonical_field(7, 1)),
    ]


def test_scaling_automorphism_identity():
    # W_{cf}(a) = phi_c(W_f(c^{-1} a)) for every scalar c != 0
    for f in _bent_instances():
        sp, p = f.domain, f.p
        base = walsh_full(f)
        for c in range(1, p):
            scaled = walsh_full(PAryFunction(sp, (c * f.table) % p))
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


def test_walsh_size_guard():
    sp = prime_space(3, 13)
    with pytest.raises(SizeGuard):
        walsh_full(PAryFunction(sp, np.zeros(sp.size, dtype=np.int64)))


def test_size_cap_override(monkeypatch):
    monkeypatch.setenv("BENT_SIZE_CAP", "10")
    sp = prime_space(3, 3)
    with pytest.raises(SizeGuard):
        walsh_full(PAryFunction(sp, [0] * 27))


def test_function_serialization_round_trip():
    f = xy_function()
    assert PAryFunction.from_dict(f.to_dict()) == f
    F = as_vectorial(quad_on_field(F9))
    d = F.to_dict()
    assert d["codomain"] == {"p": 3, "s": 1}
    assert VectorialFunction.from_dict(d) == F
