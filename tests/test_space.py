import tracemalloc

import numpy as np
import pytest

from bentpds.field import canonical_field
from bentpds.space import Space, prime_space
from space_oracle import (
    add,
    digits,
    dual_rank,
    from_digits,
    inner_product,
    join,
    negate,
    negate_ranks,
    scalar_mul,
    split,
)

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)
F27 = canonical_field(3, 3)


def test_inner_product_dot_example():
    sp = prime_space(3, 2)
    a = join(sp, (1, 2))
    b = join(sp, (2, 2))
    assert inner_product(sp, a, b) == 0  # 1*2 + 2*2 = 6 = 0 mod 3


def test_inner_product_trace_example():
    sp = Space([F9])
    # <x, x> = Tr(x^2) = Tr(-1) = -2 = 1
    assert inner_product(sp, 3, 3) == 1


def test_inner_product_with_zero():
    for sp in (prime_space(3, 3), Space([F9, F3]), Space([canonical_field(5, 2)])):
        for a in range(0, sp.size, 7):
            assert inner_product(sp, a, 0) == 0


def test_scalar_action():
    sp = prime_space(3, 2)
    x = join(sp, (1, 2))
    ranks = np.arange(sp.size)
    assert sp.gather_scaled(ranks, 1)[x] == x
    assert sp.gather_scaled(ranks, 0)[x] == 0
    assert sp.gather_scaled(ranks, 2)[x] == join(sp, (2, 1))


def test_negate():
    sp5 = prime_space(5, 2)
    assert sp5.negate(join(sp5, (1, 3))) == join(sp5, (4, 2))
    assert sp5.negate(0) == 0
    assert prime_space(3, 1).negate(1) == 2
    for sp in (prime_space(3, 3), Space([F9, F3])):
        for x in range(sp.size):
            assert sp.negate(sp.negate(x)) == x


def test_out_of_range_ranks_are_refused():
    """A rank outside [0, N) is refused with Field.check_rank's wording,
    alone or in an array, by negate and by a function's value; once -1
    gave 40 and 81 a bare IndexError on GF(3)^4.  A rank that is no
    integer by the library's one integer rule is refused as well."""
    from bentpds.spectral import VectorialFunction

    sp = prime_space(3, 4)
    F = VectorialFunction(sp, F3, np.arange(sp.size) % 3)
    for bad in (-1, 81, -81, 10 ** 6):
        message = rf"rank = {bad} must be a rank in \[0, 81\)"
        for call in (sp.negate, F):
            with pytest.raises(ValueError, match=message):
                call(bad)
            with pytest.raises(ValueError, match=message):
                call(np.int64(bad))
        with pytest.raises(ValueError, match=message):
            sp.negate(np.array([0, bad, 80]))
    for bad in (1.5, True, "3", 2 ** 70, np.array([0.0, 1.0])):
        for call in (sp.negate, F):
            with pytest.raises(ValueError, match="must be an integer"):
                call(bad)
    assert sp.negate(np.array([0, 80])).tolist() == [0, 40] and F(80) == 2


# a prime space, and two whose rank split falls inside a factor
NEGATE_SPACES = [prime_space(5, 3), Space([F27]), Space([F3, F9])]


@pytest.mark.parametrize("sp", NEGATE_SPACES, ids=lambda sp: "x".join(str(f.size) for f in sp.factors))
def test_negate_gives_an_int_for_a_rank_and_an_int64_array_for_ranks(sp):
    # callers build sets such as {x, sp.negate(x)}, so a rank must give an int
    expected = [negate(sp, x) for x in range(sp.size)]
    for kind in (int, np.int64, np.int32):
        got = [sp.negate(kind(x)) for x in range(sp.size)]
        assert {type(y) for y in got} == {int} and got == expected
    for dtype in (np.int64, np.int32):
        got = sp.negate(np.arange(sp.size, dtype=dtype))
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert sp.negate(np.array([], dtype=np.int64)).dtype == np.int64
    assert np.array_equal(negate_ranks(sp, np.arange(sp.size)), expected)  # the array oracle


def test_scalar_action_on_extension_factor_is_coefficientwise():
    sp = Space([F9])
    for x in range(9):
        assert scalar_mul(sp, 2, x) == F9.mul(2, x)


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
                lhs = inner_product(sp, add(sp, a, b), c)
                rhs = (inner_product(sp, a, c) + inner_product(sp, b, c)) % sp.p
                assert lhs == rhs
    # symmetry
    for a in pts:
        for b in pts:
            assert inner_product(sp, a, b) == inner_product(sp, b, a)


@pytest.mark.parametrize(
    "sp", [prime_space(3, 2), Space([F9]), Space([F9, F3]), Space([canonical_field(7, 2)])]
)
def test_non_degenerate(sp):
    for a in range(1, sp.size):
        assert any(inner_product(sp, a, b) != 0 for b in range(sp.size))


def test_rank_round_trips():
    for sp in (Space([F9, F3, F27]), prime_space(3, 10), Space([canonical_field(5, 2), canonical_field(5, 1)])):
        for x in range(sp.size):
            assert join(sp, split(sp, x)) == x
            assert from_digits(sp, digits(sp, x)) == x
        assert split(sp, 0) == (0,) * len(sp.factors)


def test_dual_rank_realizes_inner_product():
    for sp in (Space([F9, F3]), Space([F27]), prime_space(5, 2)):
        # dual map must be a bijection
        dual = sp.gather_dual(np.arange(sp.size))
        duals = {int(u) for u in dual}
        assert len(duals) == sp.size
        step = max(1, sp.size // 13)
        for a in range(0, sp.size, step):
            du = digits(sp, int(dual[a]))
            for x in range(0, sp.size, step):
                dx = digits(sp, x)
                assert inner_product(sp, a, x) == sum(u * v for u, v in zip(du, dx)) % sp.p


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
    ranks = np.arange(sp.size)
    scaled = [sp.gather_scaled(ranks, c) for c in range(p)]
    dual = sp.gather_dual(ranks)
    for x in range(sp.size):
        ds = digits(sp, x)
        for c in range(p):
            expected = sum((c * d % p) * p ** k for k, d in enumerate(ds))
            assert scaled[c][x] == expected
        assert sp.negate(x) == sum((-d % p) * p ** k for k, d in enumerate(ds))
    assert sorted(dual) == list(range(sp.size))
    values = np.arange(sp.size)[::-1] % 251  # narrow and not the identity
    assert np.array_equal(sp.gather_dual(values.astype(np.uint8)), values[dual])
    step = max(1, sp.size // 29)
    for a in range(sp.size):
        du = digits(sp, int(dual[a]))
        for x in range(0, sp.size, step):
            dx = digits(sp, x)
            assert inner_product(sp, a, x) == sum(u * v for u, v in zip(du, dx)) % p


# prime, extension and mixed spaces, with the 5- and 7-ary ones above;
# GF(5) has no high digits, 3^5 an odd dimension, and GF(3) x GF(27) is
# split inside its second factor
MAP_SPACES = [
    prime_space(5, 1),
    prime_space(3, 5),
    prime_space(3, 4),
    Space([F27]),
    Space([F9, F3]),
    Space([F3, F27]),
    Space([canonical_field(5, 2), canonical_field(5, 1)]),
    Space([canonical_field(7, 1), canonical_field(7, 2)]),
]


@pytest.mark.parametrize("sp", MAP_SPACES, ids=lambda sp: "x".join(str(f.size) for f in sp.factors))
def test_maps_equal_per_point_oracle(sp):
    # every map against the digit oracle, on 1-D and (N, p - 1) arrays,
    # the 1-D one a strided column
    p, points = sp.p, range(sp.size)
    values = np.random.default_rng(sp.size).integers(0, 251, (sp.size, p - 1)).astype(np.uint8)
    assert np.array_equal(sp.negate(np.arange(sp.size)), [negate(sp, x) for x in points])
    for c in range(1, p):
        scaled = [scalar_mul(sp, c, x) for x in points]
        assert np.array_equal(sp.gather_scaled(values, c), values[scaled])
        assert np.array_equal(sp.gather_scaled(values[:, 0], c), values[scaled, 0])
    dual = [dual_rank(sp, a) for a in points]
    gathered = sp.gather_dual(values)
    assert gathered.dtype == values.dtype and gathered.shape == values.shape
    assert np.array_equal(gathered, values[dual])
    assert np.array_equal(sp.gather_dual(values[:, 0]), values[dual, 0])
    for gather in (sp.gather_dual, lambda v: sp.gather_scaled(v, 2)):
        with pytest.raises(ValueError, match="first axis"):
            gather(values[1:])


MUL_SPACES = [
    prime_space(3, 4),
    Space([F9, F9]),
    Space([canonical_field(3, 4), F9, F9]),
    Space([canonical_field(5, 2), canonical_field(5, 1)]),
]


def _mul_oracle(sp, cs, x):
    """The rank of (c_i x_i), from the factor parts and Field.mul."""
    return join(sp, [f.mul(c, part) for f, c, part in zip(sp.factors, cs, split(sp, x))])


@pytest.mark.parametrize("sp", MUL_SPACES, ids=lambda sp: "x".join(str(f.size) for f in sp.factors))
def test_gather_mul_equals_per_point_oracle(sp):
    # multipliers in GF(p), equal or not, and outside it, on 1-D and
    # (N, p - 1) payloads; one multiplier of 0 collapses its factor
    p, points = sp.p, range(sp.size)
    rng = np.random.default_rng(sp.size)
    values = rng.integers(0, 251, (sp.size, p - 1)).astype(np.uint8)
    multipliers = [[c] * len(sp.factors) for c in range(p)]
    multipliers += [[1 + i % (p - 1) for i in range(len(sp.factors))]]
    multipliers += [[max(1, f.size - 1 - i) for i, f in enumerate(sp.factors)],
                    [f.primitive_element for f in sp.factors],
                    [int(rng.integers(1, f.size)) for f in sp.factors],
                    [0] + [f.size - 1 for f in sp.factors[1:]]]
    for cs in multipliers:
        moved = [_mul_oracle(sp, cs, x) for x in points]
        gathered = sp.gather_mul(values, cs)
        assert gathered.dtype == values.dtype and gathered.shape == values.shape
        assert np.array_equal(gathered, values[moved]), cs
        assert np.array_equal(sp.gather_mul(values[:, 0], cs), values[moved, 0]), cs
    for c in range(p):
        same = [c] * len(sp.factors)
        assert np.array_equal(sp.gather_mul(values, same), sp.gather_scaled(values, c))
    with pytest.raises(ValueError, match="first axis"):
        sp.gather_mul(values[1:], [sp.factors[0].primitive_element] + [1] * (len(sp.factors) - 1))
    with pytest.raises(ValueError, match="multiplier"):
        sp.gather_mul(values, [sp.factors[0].size] + [1] * (len(sp.factors) - 1))
    with pytest.raises(ValueError):
        sp.gather_mul(values, [1] * (len(sp.factors) + 1))


def test_gather_scaled_builds_no_whole_space_map():
    # a per-call map of the one factor was a 4.25 MB int64 array here
    sp = Space([canonical_field(3, 12)])
    values = (np.arange(sp.size) % 251).astype(np.uint8)
    expected = values[negate_ranks(sp, np.arange(sp.size))]  # 2 = -1 mod 3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = sp.gather_scaled(values, 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < 8 * sp.size


def test_gather_scaled_takes_integer_multipliers_only():
    # int(c) took 1.5 and True for 1 and '2' for 2
    sp = prime_space(3, 2)
    values = np.arange(sp.size)
    for c in (1.5, True, "2"):
        with pytest.raises(ValueError, match="multiplier"):
            sp.gather_scaled(values, c)
    twice = sp.gather_scaled(values, 2)
    assert np.array_equal(sp.gather_scaled(values, np.int64(2)), twice)
    assert np.array_equal(sp.gather_scaled(values, -2), sp.gather_scaled(values, 1))
    assert np.array_equal(twice, [scalar_mul(sp, 2, x) for x in values])


def test_mixed_characteristics_rejected():
    with pytest.raises(ValueError):
        Space([F3, canonical_field(5, 1)])


def test_serialization_round_trip():
    sp = Space([F9, F3])
    assert Space.from_list(sp.to_list()) == sp
