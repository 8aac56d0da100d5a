import numpy as np
import pytest

from bentpds.field import canonical_field
from bentpds.space import Space, prime_space

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)
F27 = canonical_field(3, 3)


def test_inner_product_dot_example():
    sp = prime_space(3, 2)
    a = sp.join((1, 2))
    b = sp.join((2, 2))
    assert sp.inner_product(a, b) == 0  # 1*2 + 2*2 = 6 = 0 mod 3


def test_inner_product_trace_example():
    sp = Space([F9])
    # <x, x> = Tr(x^2) = Tr(-1) = -2 = 1
    assert sp.inner_product(3, 3) == 1


def test_inner_product_with_zero():
    for sp in (prime_space(3, 3), Space([F9, F3]), Space([canonical_field(5, 2)])):
        for a in range(0, sp.size, 7):
            assert sp.inner_product(a, 0) == 0


def test_scalar_action():
    sp = prime_space(3, 2)
    x = sp.join((1, 2))
    assert sp.scalar_mul(1, x) == x
    assert sp.scalar_mul(0, x) == 0
    assert sp.scalar_mul(2, x) == sp.join((2, 1))


def test_negate():
    sp5 = prime_space(5, 2)
    assert sp5.negate(sp5.join((1, 3))) == sp5.join((4, 2))
    assert sp5.negate(0) == 0
    assert prime_space(3, 1).negate(1) == 2
    for sp in (prime_space(3, 3), Space([F9, F3])):
        for x in range(sp.size):
            assert sp.negate(sp.negate(x)) == x


def test_scalar_action_on_extension_factor_is_coefficientwise():
    sp = Space([F9])
    for x in range(9):
        assert sp.scalar_mul(2, x) == F9.mul(2, x)


@pytest.mark.parametrize(
    "sp",
    [prime_space(3, 2), prime_space(5, 2), Space([F9, F3]), Space([F27])],
)
def test_bilinearity(sp):
    step = max(1, sp.size // 11)
    pts = range(0, sp.size, step)
    for a in pts:
        for b in pts:
            for c in pts:
                lhs = sp.inner_product(sp.add(a, b), c)
                rhs = (sp.inner_product(a, c) + sp.inner_product(b, c)) % sp.p
                assert lhs == rhs
    # symmetry
    for a in pts:
        for b in pts:
            assert sp.inner_product(a, b) == sp.inner_product(b, a)


@pytest.mark.parametrize(
    "sp", [prime_space(3, 2), Space([F9]), Space([F9, F3]), Space([canonical_field(7, 2)])]
)
def test_non_degenerate(sp):
    for a in range(1, sp.size):
        assert any(sp.inner_product(a, b) != 0 for b in range(sp.size))


def test_rank_round_trips():
    for sp in (Space([F9, F3, F27]), prime_space(3, 10), Space([canonical_field(5, 2), canonical_field(5, 1)])):
        for x in range(sp.size):
            assert sp.join(sp.split(x)) == x
            assert sp.from_digits(sp.digits(x)) == x
        assert sp.split(0) == (0,) * len(sp.factors)


def test_dual_rank_realizes_inner_product():
    for sp in (Space([F9, F3]), Space([F27]), prime_space(5, 2)):
        # dual map must be a bijection
        duals = {sp.dual_rank(a) for a in range(sp.size)}
        assert len(duals) == sp.size
        step = max(1, sp.size // 13)
        for a in range(0, sp.size, step):
            du = sp.digits(sp.dual_rank(a))
            for x in range(0, sp.size, step):
                dx = sp.digits(x)
                assert sp.inner_product(a, x) == sum(u * v for u, v in zip(du, dx)) % sp.p


@pytest.mark.parametrize(
    "sp",
    [
        Space([F9, F3]),
        Space([F3, F27]),
        Space([canonical_field(5, 2), canonical_field(5, 1)]),
        Space([canonical_field(7, 1), canonical_field(7, 2)]),
        prime_space(3, 4),
    ],
)
def test_whole_space_permutations(sp):
    p = sp.p
    for x in range(sp.size):
        digits = sp.digits(x)
        for c in range(p):
            expected = sum((c * d % p) * p ** k for k, d in enumerate(digits))
            assert sp.scaled(c)[x] == expected
        assert sp.neg[x] == sum((-d % p) * p ** k for k, d in enumerate(digits))
    assert sorted(sp.dual) == list(range(sp.size))
    values = np.arange(sp.size)[::-1] % 251  # narrow and not the identity
    assert np.array_equal(sp.gather_dual(values.astype(np.uint8)), values[sp.dual])
    step = max(1, sp.size // 29)
    for a in range(sp.size):
        du = sp.digits(int(sp.dual[a]))
        for x in range(0, sp.size, step):
            dx = sp.digits(x)
            assert sp.inner_product(a, x) == sum(u * v for u, v in zip(du, dx)) % p


def test_mixed_characteristics_rejected():
    with pytest.raises(ValueError):
        Space([F3, canonical_field(5, 1)])


def test_serialization_round_trip():
    sp = Space([F9, F3])
    assert Space.from_list(sp.to_list()) == sp
