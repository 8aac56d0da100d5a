import pytest

from bentpds.cyclo import CyclotomicInt, automorphism, conj_norm, conjugate, gauss_sum
from bentpds.errors import MixedPrime, ZeroBeta


def z(p, j):
    return CyclotomicInt.zeta_pow(p, j)


def test_relation_reduces_top_power():
    # zeta * zeta = zeta^2 = -1 - zeta for p = 3
    assert (z(3, 1) * z(3, 1)).coeffs == (-1, -1)


def test_additive_cancellation():
    a = CyclotomicInt(3, (1, 1))
    b = CyclotomicInt(3, (-1, -1))
    assert (a + b).is_zero()


def test_zeta_power_wraps():
    assert z(5, 2) * z(5, 3) == CyclotomicInt.from_int(5, 1)


def test_equality_is_canonical():
    total = CyclotomicInt.zero(7)
    for j in range(7):
        total = total + z(7, j)
    assert total.is_zero()  # 1 + zeta + ... + zeta^6 = 0


def test_automorphism_examples():
    a = CyclotomicInt(3, (5, -2))
    assert automorphism(1, a) == a
    assert automorphism(2, z(3, 1)).coeffs == (-1, -1)
    assert automorphism(2, CyclotomicInt(3, (1, 2))).coeffs == (-1, -2)  # 1 + 2 zeta^2
    with pytest.raises(ZeroBeta):
        automorphism(3, a)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_automorphisms_are_multiplicative_and_form_a_group(p):
    a = CyclotomicInt(p, tuple(range(1, p)))
    b = CyclotomicInt(p, tuple((-1) ** i * (i + 2) for i in range(p - 1)))
    for beta in range(1, p):
        assert automorphism(beta, a * b) == automorphism(beta, a) * automorphism(beta, b)
        assert automorphism(beta, a + b) == automorphism(beta, a) + automorphism(beta, b)
    # composition table is the multiplicative group mod p
    for b1 in range(1, p):
        for b2 in range(1, p):
            assert automorphism(b1, automorphism(b2, a)) == automorphism((b1 * b2) % p, a)


def test_gauss_sum_small_values():
    assert gauss_sum(3).coeffs == (1, 2)
    assert (gauss_sum(3) * gauss_sum(3)) == CyclotomicInt.from_int(3, -3)
    assert (gauss_sum(5) * gauss_sum(5)) == CyclotomicInt.from_int(5, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_squares_to_p_star(p):
    legendre_minus_one = 1 if p % 4 == 1 else -1
    g = gauss_sum(p)
    assert g * g == CyclotomicInt.from_int(p, legendre_minus_one * p)


def test_conj_norm_examples():
    assert conj_norm(CyclotomicInt.zero(3)) == 0
    assert conj_norm(CyclotomicInt(3, (1, 2))) == 3
    assert conj_norm(3 * z(3, 1)) == 9


def test_conj_norm_non_integer_is_none():
    # (1 + zeta)(1 + zeta^{-1}) = 2 + zeta + zeta^4 is not rational for p = 5
    assert conj_norm(CyclotomicInt(5, (1, 1, 0, 0))) is None


@pytest.mark.parametrize("p", [3, 5])
def test_conj_norm_multiplicative(p):
    vals = [
        CyclotomicInt.from_int(p, 4),
        gauss_sum(p),
        z(p, 1) * 3,
        CyclotomicInt(p, tuple((i - 1) for i in range(p - 1))),
    ]
    for a in vals:
        for b in vals:
            na, nb, nab = conj_norm(a), conj_norm(b), conj_norm(a * b)
            if na is not None and nb is not None:
                assert nab == na * nb


def test_conjugate_is_involution():
    a = CyclotomicInt(7, (3, -1, 4, 0, 2, 9))
    assert conjugate(conjugate(a)) == a


def test_mixed_prime_rejected():
    with pytest.raises(MixedPrime):
        CyclotomicInt.zero(3) + CyclotomicInt.zero(5)


def test_scalar_and_int_equality():
    assert CyclotomicInt.from_int(5, 7) == 7
    assert 2 * z(3, 0) == CyclotomicInt(3, (2, 0))


def test_serialization_round_trip():
    a = CyclotomicInt(5, (1, -2, 3, 10**20))
    assert CyclotomicInt.from_dict(a.to_dict()) == a
