import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from bentpds import pairs, pds, spectral
from bentpds.errors import (
    InverseOfZero,
    NotADivisor,
    ReducibleModulus,
    SizeGuard,
    ZeroArgument,
    ZeroBeta,
)
from bentpds.field import Field, canonical_field, is_prime, smallest_irreducible
from bentpds.space import _scaling

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)
F27 = canonical_field(3, 3)
F81 = canonical_field(3, 4)


def projection(field, k):
    """The inverse of subfield(k)'s embedding over the whole field, -1 at
    ranks outside the copy of GF(p^k)."""
    sub, embed = field.subfield(k)
    proj = np.full(field.size, -1, dtype=np.int64)
    proj[embed] = np.arange(sub.size)
    return proj


def test_prime_field_arithmetic():
    assert F3.mul(2, 2) == 1
    assert F3.add(2, 2) == 1
    assert F3.neg(1) == 2
    assert F3.inv(2) == 2


def test_f9_uses_x_squared_plus_one():
    assert F9.modulus == (1, 0, 1)
    # rank 3 is x; x * x = x^2 = -1 = 2
    assert F9.mul(3, 3) == 2


def test_f9_inverse_of_x_found_exhaustively():
    # the only b with x*b = 1 is 2x (rank 6)
    assert [b for b in range(1, 9) if F9.mul(3, b) == 1] == [6]
    assert F9.inv(3) == 6
    assert F9.mul(3, F9.inv(3)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(InverseOfZero):
        F9.inv(0)
    with pytest.raises(InverseOfZero):
        F9.pow(0, -1)


@pytest.mark.parametrize("field", [F3, F9, F27, canonical_field(5, 2), canonical_field(7, 2)])
def test_every_nonzero_element_has_inverse(field):
    for a in range(1, field.size):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", [F9, F27, canonical_field(5, 2)])
def test_mul_associative_commutative_sampled(field):
    sample = range(0, field.size, max(1, field.size // 7))
    for a, b, c in itertools.product(sample, repeat=3):
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_trace_examples():
    assert F9.trace(1, 1) == 2          # 1 + 1
    assert F9.trace(1, 3) == 0          # x + x^3 = x - x
    for field in (F3, F9, F27):
        for a in range(field.size):
            assert field.trace(field.m, a) == a


def test_trace_requires_divisor():
    with pytest.raises(NotADivisor):
        F9.trace(3, 1)


@pytest.mark.parametrize("k", [0, -1, -2, -4])
def test_subfield_degree_must_be_positive(k):
    # -2 and -4 divide 4, so the divisor test alone would let them through
    for routine in (lambda: F81.trace(k, 1), lambda: F81.subfield(k)):
        with pytest.raises(ValueError, match=f"must be >= 1, got {k}$"):
            routine()


@pytest.mark.parametrize("field,k", [(F9, 1), (F27, 1), (F81, 1), (F81, 2)])
def test_trace_is_subfield_linear(field, k):
    sub, embed = field.subfield(k)
    for a in range(0, field.size, 5):
        for b in range(0, field.size, 7):
            assert sub.add(field.trace(k, a), field.trace(k, b)) == field.trace(
                k, field.add(a, b)
            )
    for c_sub in range(sub.size):
        c = embed[c_sub]
        for a in range(0, field.size, 5):
            assert field.trace(k, field.mul(c, a)) == sub.mul(c_sub, field.trace(k, a))


@pytest.mark.parametrize(
    "field",
    [canonical_field(3, 6), canonical_field(5, 2), canonical_field(7, 2), canonical_field(3, 10)],
)
def test_trace_table_matches_defining_sum(field):
    step = 1 if field.size < 10_000 else 37
    for k in range(1, field.m + 1):
        if field.m % k:
            continue
        proj = projection(field, k)
        table = field.trace(k, np.arange(field.size))
        for a in range(0, field.size, step):
            total, conj = 0, a
            for _ in range(field.m // k):
                total = field.add(total, conj)
                conj = field.pow(conj, field.p ** k)
            assert table[a] == proj[total]


def frobenius_trace_table(field, k):
    """Tr_k^m at every rank as the sum of the m/k Frobenius conjugates
    x^{p^{k i}}: the defining sum, kept as the oracle for the linear map."""
    proj = projection(field, k)
    ranks = np.arange(field.size, dtype=np.int64)
    frob = field.pow(ranks, field.p ** k)
    total = conj = ranks
    for _ in range(field.m // k - 1):
        conj = frob[conj]
        total = field.add(total, conj)
    return proj[total]


# every extension field of order at most 3^8, the prime fields below 3^4
# (there the trace is the identity), and 3^10
TRACE_FIELDS = [
    (p, m) for p in range(3, 3 ** 8) if is_prime(p) for m in range(1, 9)
    if p ** m <= 3 ** 8 and (m > 1 or p < 3 ** 4)
] + [(3, 10)]


def test_trace_table_is_the_frobenius_sum():
    for p, m in TRACE_FIELDS:
        field = canonical_field(p, m)
        for k in (k for k in range(1, m + 1) if m % k == 0):
            table = field.trace(k, np.arange(field.size))
            assert table.dtype == np.int64
            assert np.array_equal(table, frobenius_trace_table(field, k)), (p, m, k)


def test_quadratic_character_examples():
    assert F3.quadratic_character(1) == 1
    assert F3.quadratic_character(2) == -1
    assert canonical_field(5, 1).quadratic_character(4) == 1
    with pytest.raises(ZeroArgument):
        F9.quadratic_character(0)


@pytest.mark.parametrize("a", [-1, 81, 200])
def test_character_and_order_check_the_rank(a):
    for routine in (F81.quadratic_character, F81.multiplicative_order):
        with pytest.raises(ValueError, match=r"must be a rank in \[0, 81\)"):
            routine(a)
    with pytest.raises(ZeroArgument):
        F81.multiplicative_order(0)


@pytest.mark.parametrize("field", [F3, F9, F27, canonical_field(7, 1)])
def test_quadratic_character_multiplicative(field):
    for a in range(1, field.size):
        for b in range(1, field.size):
            assert field.quadratic_character(field.mul(a, b)) == (
                field.quadratic_character(a) * field.quadratic_character(b)
            )


def test_primitive_elements():
    assert F3.primitive_element == 2
    assert canonical_field(5, 1).primitive_element == 2
    assert canonical_field(7, 1).primitive_element == 3
    assert F9.primitive_element == 4  # 1 + x, the least rank of order 8
    for field in (F9, F27, F81):
        g = field.primitive_element
        assert field.multiplicative_order(g) == field.size - 1
        for r in range(1, g):
            assert field.multiplicative_order(r) < field.size - 1


def test_subgroup_cosets():
    assert canonical_field(3, 1).subgroup_coset(2, 1).members == {1}
    assert canonical_field(7, 1).subgroup_coset(3, 1).members == {1, 6}
    sq = F9.subgroup_coset(2, 1).members
    assert sq == {1, 2, 3, 6} and len(sq) == 4
    with pytest.raises(ZeroBeta):
        F9.subgroup_coset(2, 0)


@pytest.mark.parametrize("field", [F9, F27, canonical_field(5, 2), canonical_field(7, 2)])
def test_coset_sizes(field):
    import math

    q1 = field.size - 1
    for l in range(1, q1 + 1):
        assert len(field.subgroup_coset(l, 1).members) == q1 // math.gcd(l, q1)


def test_cosets_partition_multiplicative_group():
    H = F81.subgroup_coset(5, 1).members
    seen = set()
    for beta in range(1, 81):
        cs = F81.subgroup_coset(5, beta).members
        assert len(cs) == len(H)
        if cs & seen:
            assert cs <= seen
        seen |= cs
    assert seen == set(range(1, 81))


def test_subfield_embedding_is_field_homomorphism():
    # the last two moduli are not the canonical ones, as a bundle's may be
    for big, s in [(F81, 2), (F81, 1), (canonical_field(3, 6), 2), (canonical_field(5, 4), 2),
                   (Field(3, 4, (2, 1, 2, 2, 1)), 2), (Field(3, 6, (2, 2, 2, 2, 2, 2, 1)), 3)]:
        sub, embed = big.subfield(s)
        assert embed[0] == 0 and embed[1] == 1
        assert np.unique(embed).size == sub.size
        for a in range(sub.size):
            for b in range(sub.size):
                assert embed[sub.add(a, b)] == big.add(embed[a], embed[b])
                assert embed[sub.mul(a, b)] == big.mul(embed[a], embed[b])


def test_prime_subfield_embeds_as_constants():
    sub, embed = F9.subfield(1)
    assert sub is F3 and embed.tolist() == [0, 1, 2]
    assert not embed.flags.writeable


def test_subfield_keeps_no_whole_field_map():
    # a whole-field int64 projection kept 8 bytes per element, 4.25 MB here
    field = Field(3, 12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = field.subfield(2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < field.size
    sub, embed = copy
    assert sub.size == embed.size == 9


# A field's tables live on it, so a dropped field is freed whatever it read.
# Each read gets its own modulus (the last three of degree 4 in
# lexicographic order), so that no equal field read earlier can stand in.
FIELD_READS = {
    "trace": (lambda field: field.trace(1, 5), (2, 1, 2, 2, 1)),
    "subfield": (lambda field: field.subfield(2), (1, 2, 1, 2, 1)),
    "dual_map": (lambda field: field.dual_map, (2, 1, 1, 2, 1)),
}


@pytest.mark.parametrize("read, modulus", FIELD_READS.values(), ids=FIELD_READS.keys())
def test_a_field_is_freed_after_its_tables_are_read(read, modulus):
    assert not hasattr(Field, "_trace_table") and not hasattr(Field, "_subfield")
    field = Field(3, 4, modulus)
    assert field != F81
    read(field)
    alive = weakref.ref(field)
    del field
    gc.collect()
    assert alive() is None


def test_a_bundle_field_leaves_no_tables_behind():
    # a non-canonical GF(3^12) read from a bundle once kept 18.3 MB of tables
    # after it was dropped; the canonical fields it reads are cached anyway
    for s in (1, 2, 12):
        canonical_field(3, s)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = Field.from_dict({"p": 3, "m": 12, "modulus": [1, 0] + [2] * 10 + [1]})
        assert field != canonical_field(3, 12)
        field.trace(1, 5)
        field.subfield(2)
        del field
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 2 ** 20


def test_shared_tables_are_read_only():
    for k in (1, 2, 4):
        F81.trace(k, 0)
    tables = {
        "_powers": F81._powers, "_digits": F81._digits, "_exp": F81._exp, "_log": F81._log,
        "dual_map": F81.dual_map, "_scaling": _scaling(3, 2, 2),  # what negate reads at 3^4
        "_half_sub_table": pairs._half_sub_table(3, 2),
        **{f"trace {k}": table for k, table in F81._traces.items()},
        **{f"_candidate_map {i}": table
           for i, table in enumerate(spectral._candidate_map(3, 4))},
    }
    assert len(tables) == 15
    for name, table in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            table[...] = table
        assert not table.flags.writeable, name


def test_modulus_selection_deterministic():
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(3, 3) == (1, 2, 0, 1)
    assert smallest_irreducible(3, 4) == (2, 1, 0, 0, 1)
    assert Field(3, 4).modulus == Field(3, 4).modulus


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        Field(3, 2, (2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        Field(2, 3)


def test_size_guard():
    with pytest.raises(SizeGuard):
        Field(3, 21)


def test_serialization_round_trip():
    for field in (F3, F9, canonical_field(7, 2)):
        d = field.to_dict()
        assert d == {"p": field.p, "m": field.m, "modulus": list(field.modulus)}
        assert Field.from_dict(d) == field


def test_log_residue_names_the_coset_and_is_minus_one_at_zero():
    w = F81.primitive_element
    for k in range(80):
        assert F81.log_residue(F81.pow(w, k), 80) == k
        assert F81.log_residue(F81.pow(w, k), 16) == k % 16
    assert F81.log_residue(0, 5) == -1 and isinstance(F81.log_residue(3, 5), int)
    r = F81.log_residue(np.arange(81), 10)
    assert r.dtype == np.int64 and r[0] == -1
    assert np.array_equal(r[1:], [F81.log_residue(a, 10) for a in range(1, 81)])
    for g in (0, -2, 3, 7, 81):
        with pytest.raises(ValueError, match="must be a positive divisor of 80"):
            F81.log_residue(1, g)
    for g in (True, 2.0):
        with pytest.raises(ValueError, match="must be an integer"):
            F81.log_residue(1, g)


# q = 3^k, 5^2 and 7^2, and primes p = 11 and 13 whose p - 1 has several factors
COSET_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,m", COSET_FIELDS, ids=[f"q={p ** m}" for p, m in COSET_FIELDS])
def test_coset_masks_match_brute_force_sets(p, m):
    field = canonical_field(p, m)
    q1 = field.size - 1
    units = np.arange(1, field.size)
    squares = {field.mul(x, x) for x in range(1, field.size)}
    assert field.nonsquares() == set(range(1, field.size)) - squares
    for a in range(1, field.size):
        assert field.quadratic_character(a) == (1 if a in squares else -1)
    for l in range(1, 2 * q1 + 1):
        H = field.pow(units, l)  # { x^l : x != 0 }
        for beta in range(1, field.size):
            cs = field.subgroup_coset(l, beta)
            assert cs.members == set(field.mul(beta, H).tolist()), (l, beta)
            assert cs.mask.dtype == bool


# each call took a bool or a float for an integer rank or exponent and let
# out an IndexError, a TypeError or a numpy ValueError, or answered anyway
NON_INTEGER_CALLS = {
    "quadratic_character(1.5)": lambda: F9.quadratic_character(1.5),
    "multiplicative_order(2.0)": lambda: F9.multiplicative_order(2.0),
    "subgroup_coset(2, 1.5)": lambda: F9.subgroup_coset(2, 1.5),
    "subgroup_coset(2.5, 1)": lambda: F9.subgroup_coset(2.5, 1),
    "subgroup_coset(True, True)": lambda: F9.subgroup_coset(True, True),
    "subgroup_coset(True, 1)": lambda: F9.subgroup_coset(True, 1),
    "check_rank(True)": lambda: F9.check_rank(True),
    "gaussian_period(3, 2, 2, 1.0)": lambda: pds.gaussian_period(3, 2, 2, 1.0),
    "gaussian_period(3, 2, 2.0, 1)": lambda: pds.gaussian_period(3, 2, 2.0, 1),
    "gaussian_period_semiprimitive(3, 2, 2.0, 1)":
        lambda: pds.gaussian_period_semiprimitive(3, 2, 2.0, 1),
    "semiprimitive_check(3, 2, 2.5)": lambda: pds.semiprimitive_check(3, 2, 2.5),
    "sigma_predicates(l=2.0)": lambda: pds.sigma_predicates(F3, {1: 1, 2: 2}, 2.0),
}

# subfield(2.0) returned the identity copy and trace(1.0, 5) and
# trace(True, 5) answered 2, through the cached entries of 2 and 1;
# trace(2.0, 1) and subfield('2') let a TypeError out
NON_INTEGER_DEGREES = {
    "F9.subfield(2.0)": lambda: F9.subfield(2.0),
    "F81.subfield(True)": lambda: F81.subfield(True),
    "F81.subfield('2')": lambda: F81.subfield("2"),
    "F81.trace(1.0, 5)": lambda: F81.trace(1.0, 5),
    "F81.trace(True, 5)": lambda: F81.trace(True, 5),
    "F9.trace(2.0, 1)": lambda: F9.trace(2.0, 1),
}


@pytest.mark.parametrize("call", NON_INTEGER_DEGREES.values(), ids=NON_INTEGER_DEGREES.keys())
def test_subfield_and_trace_degrees_follow_the_integer_rule(call):
    # fill the cached entries that a bool or a float would reach
    F81.trace(1, 5)
    F9.subfield(2)
    with pytest.raises(ValueError, match="subfield degree = .* must be an integer"):
        call()


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_non_integer_ranks_and_exponents_raise_value_error(call):
    with pytest.raises(ValueError, match="must be (a rank|an integer)"):
        call()


def test_numpy_integer_ranks_and_exponents_are_integers():
    assert F9.check_rank(np.int64(3)) == 3
    assert F9.subgroup_coset(np.int32(2), np.uint8(1)).members == {1, 2, 3, 6}
    assert pds.semiprimitive_check(3, 2, np.int64(2)) == pds.semiprimitive_check(3, 2, 2)
    (sub, embed), (sub2, embed2) = F81.subfield(np.int64(2)), F81.subfield(2)
    assert sub is sub2 and np.array_equal(embed, embed2)
    assert F81.trace(np.uint8(1), 5) == F81.trace(1, 5) == 2


# int() read each of these as GF(9) modulo x^2 + 1, or let a TypeError out
NON_INTEGER_FIELDS = {
    "Field(3, 2, (1, 0, 1.5))": lambda: Field(3, 2, (1, 0, 1.5)),
    "Field(3, 2, (1, 0, True))": lambda: Field(3, 2, (1, 0, True)),
    "Field(3.0, 2)": lambda: Field(3.0, 2),
    "Field(3, True)": lambda: Field(3, True),
    "canonical_field(3, 2.0)": lambda: canonical_field(3, 2.0),
    "canonical_field(3, True)": lambda: canonical_field(3, True),
    "from_dict p 3.5": lambda: Field.from_dict({"p": 3.5, "m": 2, "modulus": [1, 0, 1]}),
    "from_dict m '2'": lambda: Field.from_dict({"p": 3, "m": "2", "modulus": [1, 0, 1]}),
    "from_dict modulus 1.5": lambda: Field.from_dict({"p": 3, "m": 2, "modulus": [1.5, 0, 1]}),
}


@pytest.mark.parametrize("call", NON_INTEGER_FIELDS.values(), ids=NON_INTEGER_FIELDS.keys())
def test_field_descriptors_follow_the_integer_rule(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_descriptors_build_the_field():
    field = Field(np.int64(3), np.int64(2), np.array([1, 0, 1]))
    assert field == F9 and type(field.p) is int and type(field.m) is int
    assert canonical_field(np.int32(3), np.uint8(2)) is F9
    assert Field.from_dict({"p": np.int64(3), "m": np.int64(2), "modulus": [np.int64(1), 0, 1]}) is F9


def test_from_dict_builds_each_canonical_field_once():
    assert Field.from_dict(F81.to_dict()) is F81
    # a modulus read mod p is the canonical one; another builds its own field
    assert Field.from_dict({"p": 3, "m": 2, "modulus": [4, -3, 1]}) is F9
    other = Field.from_dict({"p": 3, "m": 2, "modulus": [2, 2, 1]})
    assert other.modulus == (2, 2, 1) and other is not Field.from_dict(other.to_dict())
    with pytest.raises(ReducibleModulus):
        Field.from_dict({"p": 3, "m": 2, "modulus": [2, 0, 1]})
    with pytest.raises(ValueError, match="monic of degree m"):
        Field.from_dict({"p": 3, "m": 2, "modulus": [1, 1]})
