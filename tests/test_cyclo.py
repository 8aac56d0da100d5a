import numpy as np
import pytest

from bentpds import cyclo
from bentpds.cyclo import CyclotomicInt, reduce_counts
from bentpds.errors import ZeroBeta
from ring_oracle import MixedPrime, RingInt, automorphism, conj_norm, conjugate, gauss_sum


def z(p, j):
    return RingInt.zeta_pow(p, j)


# ---------------------------------------------------------------------------
# the library's reduction and value record against the oracle ring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_reduce_counts_equals_the_oracle_rewrite(p):
    counts = np.random.default_rng(p).integers(-50, 51, size=(4, 6, p))
    reduced = reduce_counts(counts)
    assert reduced.shape == (4, 6, p - 1)
    for row, out in zip(counts.reshape(-1, p), reduced.reshape(-1, p - 1)):
        assert tuple(out.tolist()) == RingInt.from_exponent_counts(p, row.tolist()).coeffs
        assert CyclotomicInt.from_exponent_counts(p, row) == RingInt.from_exponent_counts(p, row)
    out = np.empty((4, 6, p - 1), dtype=np.float32)
    assert reduce_counts(counts.astype(np.float32), out=out) is out
    assert np.array_equal(out, reduced)


def test_value_record_keeps_python_ints():
    # counts past int64 stay exact: numpy reduces them as Python objects
    big = 10 ** 30
    a = CyclotomicInt.from_exponent_counts(5, [big, 0, 1, 2, -big])
    assert a.coeffs == (2 * big, big, big + 1, big + 2)
    assert all(type(c) is int for c in a.coeffs)
    b = CyclotomicInt(np.int64(3), np.array([4, -5], dtype=np.int64))
    assert type(b.p) is int and b.coeffs == (4, -5) and all(type(c) is int for c in b.coeffs)
    assert a == RingInt.from_exponent_counts(5, [big, 0, 1, 2, -big])
    assert CyclotomicInt.from_int(5, 7) == 7 and CyclotomicInt.from_int(5, 7) != 8
    with pytest.raises(ValueError, match="need 2 coefficients"):
        CyclotomicInt(3, (1, 2, 3))


# int() read these as coefficients [1, 1] and [7, 2], and kept p = 3.0
NON_INTEGER_RECORDS = {
    "coeffs (1.5, True)": lambda: CyclotomicInt(3, (1.5, True)),
    "coeffs ('7', 2)": lambda: CyclotomicInt(3, ("7", 2)),
    "coeffs (True, 1)": lambda: CyclotomicInt(3, (True, 1)),
    "coeffs float64 row": lambda: CyclotomicInt(3, np.array([1.0, 2.0])),
    "p 3.0": lambda: CyclotomicInt(3.0, (1, 2)),
    "p True": lambda: CyclotomicInt(True, ()),
}


@pytest.mark.parametrize("call", NON_INTEGER_RECORDS.values(), ids=NON_INTEGER_RECORDS.keys())
def test_value_record_follows_the_integer_rule(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 211])
def test_library_gauss_sum_equals_the_oracle_one(p):
    assert cyclo.gauss_sum(p) == gauss_sum(p)


def test_gauss_sum_small_values():
    assert cyclo.gauss_sum(3).coeffs == (1, 2)
    assert gauss_sum(3) * gauss_sum(3) == RingInt.from_int(3, -3)
    assert gauss_sum(5) * gauss_sum(5) == RingInt.from_int(5, 5)


# ---------------------------------------------------------------------------
# the oracle ring
# ---------------------------------------------------------------------------

def test_relation_reduces_top_power():
    # zeta * zeta = zeta^2 = -1 - zeta for p = 3
    assert (z(3, 1) * z(3, 1)).coeffs == (-1, -1)


def test_additive_cancellation():
    a = RingInt(3, (1, 1))
    b = RingInt(3, (-1, -1))
    assert (a + b).is_zero()


def test_zeta_power_wraps():
    assert z(5, 2) * z(5, 3) == RingInt.from_int(5, 1)


def test_equality_is_canonical():
    total = RingInt.zero(7)
    for j in range(7):
        total = total + z(7, j)
    assert total.is_zero()  # 1 + zeta + ... + zeta^6 = 0


def test_automorphism_examples():
    a = RingInt(3, (5, -2))
    assert automorphism(1, a) == a
    assert automorphism(2, z(3, 1)).coeffs == (-1, -1)
    assert automorphism(2, RingInt(3, (1, 2))).coeffs == (-1, -2)  # 1 + 2 zeta^2
    with pytest.raises(ZeroBeta):
        automorphism(3, a)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_automorphisms_are_multiplicative_and_form_a_group(p):
    a = RingInt(p, tuple(range(1, p)))
    b = RingInt(p, tuple((-1) ** i * (i + 2) for i in range(p - 1)))
    for beta in range(1, p):
        assert automorphism(beta, a * b) == automorphism(beta, a) * automorphism(beta, b)
        assert automorphism(beta, a + b) == automorphism(beta, a) + automorphism(beta, b)
    # composition table is the multiplicative group mod p
    for b1 in range(1, p):
        for b2 in range(1, p):
            assert automorphism(b1, automorphism(b2, a)) == automorphism((b1 * b2) % p, a)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_squares_to_p_star(p):
    legendre_minus_one = 1 if p % 4 == 1 else -1
    g = gauss_sum(p)
    assert g * g == RingInt.from_int(p, legendre_minus_one * p)


def test_conj_norm_examples():
    assert conj_norm(RingInt.zero(3)) == 0
    assert conj_norm(RingInt(3, (1, 2))) == 3
    assert conj_norm(3 * z(3, 1)) == 9


def test_conj_norm_non_integer_is_none():
    # (1 + zeta)(1 + zeta^{-1}) = 2 + zeta + zeta^4 is not rational for p = 5
    assert conj_norm(RingInt(5, (1, 1, 0, 0))) is None


@pytest.mark.parametrize("p", [3, 5])
def test_conj_norm_multiplicative(p):
    vals = [
        RingInt.from_int(p, 4),
        gauss_sum(p),
        z(p, 1) * 3,
        RingInt(p, tuple((i - 1) for i in range(p - 1))),
    ]
    for a in vals:
        for b in vals:
            na, nb, nab = conj_norm(a), conj_norm(b), conj_norm(a * b)
            if na is not None and nb is not None:
                assert nab == na * nb


def test_conjugate_is_involution():
    a = RingInt(7, (3, -1, 4, 0, 2, 9))
    assert conjugate(conjugate(a)) == a


def test_mixed_prime_rejected():
    with pytest.raises(MixedPrime):
        RingInt.zero(3) + RingInt.zero(5)


def test_scalar_and_int_equality():
    assert RingInt.from_int(5, 7) == 7
    assert 2 * z(3, 0) == RingInt(3, (2, 0))


def test_serialization_round_trip():
    a = CyclotomicInt(5, (1, -2, 3, 10**20))
    assert RingInt.from_dict(a.to_dict()) == a
