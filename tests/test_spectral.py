import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentpds import spectral
from bentpds.errors import MatchFailure, NotBent, PreconditionF0, SizeGuard, ZeroComponent
from bentpds.field import canonical_field
from bentpds.limits import exact_float_dtype
from bentpds.space import Space, prime_space
from bentpds.spectral import (
    DualBentCertificate,
    VectorialFunction,
    classify_bent,
    component,
    dual_bent_certificate,
    lform_exponents,
    lform_converse_check,
    walsh_full,
    _candidate_map,
    _match_candidates,
    _scalar_orbits,
)
from ring_oracle import RingInt, automorphism, conj_norm, conjugate
from space_oracle import inner_product, scalar_mul, split
from spectral_oracle import (
    candidates,
    classify_by_norms,
    conj_products,
    parseval_ok,
    walsh_naive,
)

F3 = canonical_field(3, 1)
F9 = canonical_field(3, 2)


def p_ary(sp, table):
    return VectorialFunction(sp, canonical_field(sp.p, 1), table)


def xy_function(p=3):
    sp = prime_space(p, 2)
    return p_ary(sp, [(split(sp, r)[0] * split(sp, r)[1]) % p for r in range(sp.size)])


def quad_on_field(field, a=1, s=1):
    sp = Space([field])
    return p_ary(sp, [field.trace(s, field.mul(a, field.mul(x, x))) for x in range(field.size)])


def test_walsh_of_zero_function_on_v1():
    f = p_ary(prime_space(3, 1), [0, 0, 0])
    spectrum = walsh_full(f)
    assert spectrum[0] == 3
    assert spectrum[1] == 0 and spectrum[2] == 0


@pytest.mark.parametrize("sp", [prime_space(3, 3), Space([F9]), prime_space(5, 2)])
def test_walsh_of_zero_function_peaks_at_origin(sp):
    spectrum = walsh_full(p_ary(sp, [0] * sp.size))
    assert spectrum[0] == sp.size
    assert all(spectrum[a] == 0 for a in range(1, sp.size))


def test_xy_spectrum_is_flat():
    spectrum = walsh_full(xy_function())
    assert all(conj_norm(spectrum[a]) == 9 for a in range(9))
    assert parseval_ok(spectrum)


def test_xy_classification():
    cl = classify_bent(xy_function())
    assert cl.is_bent and cl.weakly_regular and cl.regular and cl.epsilon == 1
    sp = cl.dual.domain
    for r in range(9):
        a, b = split(sp, r)
        assert cl.dual(r) == (-a * b) % 3


def test_zero_function_is_not_bent():
    cl = classify_bent(p_ary(prime_space(3, 2), [0] * 9))
    assert not cl.is_bent and cl.dual is None and cl.epsilon is None


def test_odd_dimension_bent_matches_gauss_candidates():
    f = p_ary(prime_space(3, 1), [0, 1, 1])  # x^2 mod 3
    cl = classify_bent(f)
    assert cl.is_bent and cl.weakly_regular
    # W(a) = +-g zeta^j exactly; |W|^2 = 3 for every a
    W = walsh_full(f)
    assert all(conj_norm(W[a]) == 3 for a in range(3))


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
        assert parseval_ok(fast)


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
    got = conj_products(rows, p)
    for row, prod in zip(rows, got):
        a = RingInt(p, row)
        assert tuple(prod.tolist()) == (a * conjugate(a)).coeffs


def test_norm_oracle_refuses_spectra_whose_norms_overflow_int64():
    # 2^2 3^40 >= 2^63 > 2^2 3^38; no rows are needed to be refused
    with pytest.raises(SizeGuard, match="int64 norms"):
        parseval_ok(spectral.WalshSpectrum(prime_space(3, 20), np.zeros((0, 2), dtype=np.int64)))
    assert parseval_ok(walsh_full(xy_function()))


def test_fast_transform_equals_naive_at_3_pow_6():
    sp = Space([canonical_field(3, 3), canonical_field(3, 3)])
    F27 = canonical_field(3, 3)
    tab = [
        F27.trace(1, F27.mul(split(sp, r)[0], split(sp, r)[1]))
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
    for routine in (walsh_full, walsh_naive, classify_bent, lform_exponents,
                    lform_converse_check):
        with pytest.raises(ValueError, match="s = 1"):
            routine(F)


def vectorial_bent_per_component(F):
    """True iff every nonzero component is bent, classified one at a time."""
    return all(classify_bent(component(F, c)).is_bent for c in range(1, F.codomain.size))


def test_is_vectorial_bent():
    from bentpds.constructions import mm_power, quad_trace

    for pair in (mm_power(3, 2, 1, 1, 1), quad_trace(3, 2, 2, 1)):
        assert vectorial_bent_per_component(pair.function)
        assert dual_bent_certificate(pair.function, pair.dual) is not None
    zero = VectorialFunction(prime_space(3, 2), F3, [0] * 9)
    assert not vectorial_bent_per_component(zero)
    with pytest.raises(NotBent, match="component 1 is not bent"):
        dual_bent_certificate(zero, zero)


def test_certificate_rejects_wrong_dual():
    from bentpds.constructions import mm_power

    pair = mm_power(3, 2, 1, 1, 1)
    zero = VectorialFunction(pair.function.domain, pair.function.codomain,
                             [0] * pair.function.domain.size)
    assert dual_bent_certificate(pair.function, zero) is None


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
    cubic = [(x * x * y + 2 * y ** 3) % 7 for y in range(7) for x in range(7)]
    assert lform_exponents(p_ary(prime_space(7, 2), cubic)) == {3}
    no_form = [(x + y * y) % 5 for y in range(5) for x in range(5)]
    assert lform_exponents(p_ary(prime_space(5, 2), no_form)) == set()
    # f(a x) = a^2 f(x) for every square a, but f(g x) = 0 != g^l f(x) at
    # x = (1, 0) for the generator g = 2, so f is no l-form
    sp, squares = prime_space(13, 2), {x * x % 13 for x in range(1, 13)}
    f = p_ary(sp, [x * x % 13 if x in squares else 0 for y in range(13) for x in range(13)])
    assert all(np.array_equal(sp.gather_scaled(f.table, a), a * a * f.table % 13) for a in squares)
    assert lform_exponents(f) == set()


def test_lform_exponents_retain_no_scaling_map():
    # each scaling is gathered per factor and dropped; a cache of them held
    # p - 2 whole-space int64 maps, 4.7 MB here and 231 MB at 7^8
    from bentpds.constructions import quad_trace

    f = quad_trace(7, 6, 1, 1).function
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exponents = lform_exponents(f)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert exponents == {2}
    assert retained < 8 * f.domain.size  # less than one int64 map


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
                expected = automorphism(c, base[scalar_mul(sp, cinv, a)])
                assert scaled[a] == expected


def test_dual_of_dual_is_negated_argument():
    for f in _bent_instances():
        cl = classify_bent(f)
        assert cl.is_bent and cl.weakly_regular
        cl2 = classify_bent(cl.dual)
        assert cl2.is_bent
        sp = f.domain
        assert all(cl2.dual(x) == f(sp.negate(x)) for x in range(sp.size))


# 3^11 takes chunked top passes and several blocks in the real scratch
@pytest.mark.parametrize("p, dim", [(3, 6), (7, 3), (17, 2), (3, 11)])
def test_digit_transform_float64_equals_float32(p, dim):
    # tier-1 spaces all take float32; the float64 passes must agree with it
    N = p ** dim
    table = np.array(_random_table(prime_space(p, dim), 5))
    slabs = {}
    for dtype in (np.float32, np.float64):
        C = np.zeros((p, N), dtype=dtype)
        C[table, np.arange(N)] = 1
        slabs[dtype] = spectral._digit_transform(C, p, dim)
        assert slabs[dtype].dtype == dtype
    assert np.array_equal(slabs[np.float32], slabs[np.float64])


@pytest.mark.parametrize("p, dim", [(3, 5), (7, 3), (13, 2)])
def test_shift_pass_equals_dense_pass(p, dim):
    N = p ** dim
    C = np.zeros((p, N), dtype=np.float32)
    C[np.array(_random_table(prime_space(p, dim), 7)), np.arange(N)] = 1
    for k in range(dim):  # every block count a pass meets, the last one included
        dense, shifted = np.empty_like(C), np.empty_like(C)
        X, D, S = (A.reshape(p ** k, p * p, -1) for A in (C, dense, shifted))
        spectral._dense_pass(X, D, p)
        spectral._shift_pass(X, S, p)
        assert np.array_equal(dense, shifted)


def test_large_prime_transform_builds_no_dense_matrix():
    # a (p^2, p^2) matrix at p = 211 would hold about 2e9 entries
    spectral._pass_matrices.cache_clear()
    spectral._tail_matrix.cache_clear()
    sp = prime_space(211, 2)
    table = np.array(_random_table(sp, 3))
    table[0] = 0
    W = walsh_full(p_ary(sp, table))
    assert spectral._pass_matrices.cache_info().currsize == 0
    assert spectral._tail_matrix.cache_info().currsize == 0
    # W(0) = sum_x zeta^f(x), and sum_a W(a) = p^n zeta^f(0) = p^n
    counts = np.bincount(table, minlength=sp.p).tolist()
    assert W[0] == RingInt.from_exponent_counts(sp.p, counts)
    assert W.coeff_rows.sum(axis=0).tolist() == [sp.size] + [0] * (sp.p - 2)


# prime and extension factors.  The dense path folds the last T passes into
# one tail product: T = 3 at 3^5 and 3^4, after two and one stacked passes;
# at 3^2 and 3^1 the space's passes cap T at 2 and 1; T = 2 at 5^3, and
# T = 1 from p = 7
ORACLE_SPACES = [
    prime_space(3, 5),
    Space([F9, F3, F3]),
    Space([F9]),
    prime_space(3, 1),
    Space([canonical_field(5, 2), canonical_field(5, 1)]),
    Space([canonical_field(7, 2), canonical_field(7, 1)]),
    Space([canonical_field(13, 2)]),
    prime_space(17, 2),
]


@lru_cache(maxsize=None)
def _inner_products(sp):
    return np.array([[inner_product(sp, a, x) for x in range(sp.size)] for a in range(sp.size)])


def _scalar_char_counts(sp, e):
    """Row a: the coefficients of sum_x zeta^{e[x] - <a, x>} over the x with
    e[x] in [0, p), one point a at a time from space_oracle.inner_product, reduced
    by zeta^{p-1} = -(1 + ... + zeta^{p-2}); no transform code."""
    p = sp.p
    kept = (e >= 0) & (e < p)
    rows = np.empty((sp.size, p - 1), dtype=np.int64)
    for a, ip in enumerate(_inner_products(sp)):
        counts = np.bincount((e[kept] - ip[kept]) % p, minlength=p)
        rows[a] = counts[:-1] - counts[-1]
    return rows


@pytest.mark.parametrize("path", ["dense", "shift"])
@pytest.mark.parametrize("sp", ORACLE_SPACES, ids=lambda sp: "x".join(str(f.size) for f in sp.factors))
def test_char_counts_equal_scalar_oracle(sp, path, monkeypatch):
    # -1 entries leave their point out, as in the character verifier
    p, N = sp.p, sp.size
    monkeypatch.setattr(spectral, "DENSE_PASS_MAX_P", p if path == "dense" else p - 1)
    rng = np.random.default_rng(N)
    tables = [
        rng.integers(-1, p, N),  # every value, about 1 in p + 1 points left out
        np.where(rng.random(N) < 0.3, 0, -1),  # an indicator table
        np.full(N, -1),  # every point left out
    ]
    for e in tables:
        G = spectral._char_counts(sp, e.astype(np.int8))
        assert G.shape == (N, p - 1)
        assert np.array_equal(sp.gather_dual(G), _scalar_char_counts(sp, e))


def _record_tails(monkeypatch):
    """The (p, T) of every tail product a transform runs from now on."""
    tails, real = [], spectral._tail_matrix
    monkeypatch.setattr(spectral, "_tail_matrix",
                        lambda p, T, dtype: tails.append((p, T)) or real(p, T, dtype))
    return tails


def test_oracle_spaces_reach_every_tail_length(monkeypatch):
    tails = _record_tails(monkeypatch)
    for sp in ORACLE_SPACES:
        spectral._char_counts(sp, np.zeros(sp.size, dtype=np.int8))
    assert {(3, 1), (3, 2), (3, 3), (5, 2), (7, 1)} <= set(tails)


@pytest.mark.parametrize("entries", ["p^2", "2p^2", "2p^3"])
@pytest.mark.parametrize("path", ["dense", "shift"])
@pytest.mark.parametrize("sp", ORACLE_SPACES, ids=lambda sp: "x".join(str(f.size) for f in sp.factors))
def test_char_counts_equal_scalar_oracle_in_a_small_scratch(sp, path, entries, monkeypatch):
    # a scratch of p^2 entries chunks every pass but the last, one column and
    # one block at a time; 2p^2 takes two columns and two blocks per step,
    # each with a remainder; 2p^3 leaves two passes inside each block, which
    # cuts the tail product short at p = 3 (T = 2) and runs one stacked pass
    # before it from p = 7
    p, N = sp.p, sp.size
    size = {"p^2": p * p, "2p^2": 2 * p * p, "2p^3": 2 * p ** 3}[entries]
    monkeypatch.setattr(spectral, "DENSE_PASS_MAX_P", p if path == "dense" else p - 1)
    monkeypatch.setattr(spectral, "SCRATCH_BYTES", size * exact_float_dtype(N).itemsize)
    monkeypatch.setattr(spectral, "SHIFT_SLICE", size // p)
    step = "_dense_pass" if path == "dense" else "_shift_pass"
    calls = []
    real = getattr(spectral, step)
    monkeypatch.setattr(spectral, step, lambda X, Y, p: calls.append(X.shape) or real(X, Y, p))
    tails = _record_tails(monkeypatch)
    rng = np.random.default_rng(N + 1)
    for e in (rng.integers(-1, p, N), np.where(rng.random(N) < 0.3, 0, -1)):
        calls.clear()
        G = spectral._char_counts(sp, e.astype(np.int8))
        assert np.array_equal(sp.gather_dual(G), _scalar_char_counts(sp, e))
        if entries == "p^2" and sp.dim > 1:
            # more steps than passes: the buffer went through in chunks
            assert len(calls) > sp.dim
    # a block holds one pass, or two at 2p^3, and the tail folds no more
    assert all(T <= (2 if entries == "2p^3" else 1) for _, T in tails)


@pytest.mark.parametrize("dim", [8, 10])
def test_no_stacked_pass_runs_on_fewer_columns_than_the_tail_folds(dim, monkeypatch):
    # passes over few columns are many tiny BLAS products, so the last three
    # passes of a block at p = 3 go into the tail product; this holds at
    # 3^10, where the top pass goes through the scratch in column chunks,
    # as at 3^8, where it does not
    p, N = 3, 3 ** dim
    spectral._tail_matrix(p, 3, np.dtype(exact_float_dtype(N)))  # built through _dense_pass
    shapes, real = [], spectral._dense_pass
    monkeypatch.setattr(spectral, "_dense_pass",
                        lambda X, Y, p: shapes.append(X.shape) or real(X, Y, p))
    tails = _record_tails(monkeypatch)
    spectral._char_counts(prime_space(p, dim), np.zeros(N, dtype=np.int8))
    assert tails and set(tails) == {(p, 3)}
    assert len(shapes) >= dim - 3 and min(c for _, _, c in shapes) >= p ** 3


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
    d["table"] = F.table  # the CLI reader hands over int64 arrays
    assert VectorialFunction.from_dict(d) == F


def test_table_entries_must_be_int64_integers():
    sp, table = prime_space(3, 2), [0, 1, 2, 0, 1, 2, 0, 1, 2]
    for ok in (table, tuple(table), np.array(table, dtype=np.uint8), [np.int64(v) for v in table]):
        f = p_ary(sp, ok)
        assert f.table.dtype == np.int64 and f.table.tolist() == table
    bad = [
        [0.0] + table[1:], [0.5] + table[1:], [False] + table[1:], ["0"] + table[1:],
        [None] + table[1:], [10 ** 30] + table[1:], [2 ** 63] + table[1:],
        [2 ** 64] + table[1:], [-1, 2 ** 63] + table[2:], np.array(table, dtype=float),
        np.array(table, dtype=bool), np.array(table, dtype=object),
        np.array(table, dtype=np.uint64) + np.uint64(2 ** 63),
    ]
    for entries in bad:
        with pytest.raises(ValueError, match="table entries must"):
            p_ary(sp, entries)


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
        VectorialFunction(dom, cod, dom.gather_scaled(Fstar.table, 2)[dom.neg]),
        VectorialFunction(dom, cod, shuffled[Fstar.table]),
    ]
    if cod.m > 1:
        # x -> beta x with beta outside GF(p): certifies with another sigma
        out.append(VectorialFunction(dom, cod, cod.mul(cod.p, Fstar.table)))
    return out


def _wrong_dual_cases():
    """(pair, F*) with F* a wrong dual of pair.function."""
    from bentpds.constructions import mm_power, quad_trace

    cases = [
        (mm_power(3, 2, 2, 1, 1), mm_power(3, 2, 2, 1, 3).dual),
        (mm_power(5, 1, 1, 1, 1), mm_power(5, 1, 1, 2, 1).dual),
        (quad_trace(5, 3, 1, 2), quad_trace(5, 3, 1, 1).dual),
        (quad_trace(7, 3, 1, 3), quad_trace(7, 3, 1, 1).dual),
        (quad_trace(5, 3, 3, 2), quad_trace(5, 3, 3, 1).dual),
    ]
    return [(pair, Fstar) for pair, other in cases
            for Fstar in _wrong_duals(pair.function, pair.dual, other)]


def test_certificate_equals_oracle_on_wrong_duals():
    cases = _wrong_dual_cases()
    outcomes = []
    for pair, Fstar in cases:
        derived = _outcome(dual_bent_certificate, pair.function, Fstar)
        assert derived == _outcome(certificate_per_component, pair.function, Fstar)
        outcomes.append(derived)
    # both kinds of result occur: rejected, and certified with another sigma
    assert None in outcomes
    assert any(o is not None and dict(o[0]) != cases[0][0].sigma for o in outcomes)


def _two_form_pair(g1, g2, h1, h2, p=3):
    """F, F*: GF(p)^2 -> GF(p^2) with components F_{a + b p} = a g1 + b g2
    and F*_{a + b p} = a h1 + b h2, for tables g1, g2, h1, h2 of p-ary
    functions on GF(p)^2 (rank p is theta, and y -> (Tr y, Tr theta y) is
    a bijection)."""
    cod = canonical_field(p, 2)
    sp = prime_space(p, 2)
    ranks = np.arange(cod.size)
    lookup = np.empty((p, p), dtype=np.int64)
    lookup[cod.trace(1, ranks), cod.trace(1, cod.mul(p, ranks))] = ranks
    return (VectorialFunction(sp, cod, lookup[np.asarray(g1), np.asarray(g2)]),
            VectorialFunction(sp, cod, lookup[np.asarray(h1), np.asarray(h2)]))


def _bent_then_zero(p=5):
    """F: GF(p)^2 -> GF(p^2) whose component a + b theta (c = a + b p) is
    a f for the bent f = xy, so every c < p is bent and c = p is the first
    component that is not."""
    f = xy_function(p).table
    return _two_form_pair(f, 0 * f, (-f) % p, np.arange(p * p) % p, p)


def test_first_non_bent_component_past_c_1():
    F, Fstar = _bent_then_zero()
    expected = ("NotBent", "component 5 is not bent")
    assert _outcome(certificate_per_component, F, Fstar) == expected
    assert _outcome(dual_bent_certificate, F, Fstar) == expected
    assert not vectorial_bent_per_component(F)
    zero = VectorialFunction(F.domain, F.codomain, np.zeros(F.domain.size, dtype=np.int64))
    assert _outcome(dual_bent_certificate, F, zero) is None
    assert _outcome(certificate_per_component, F, zero) is None


def _not_bent_at_4():
    """Tables (g1, g2, g1^*, g2^*) on GF(3)^2.  Over GF(9) the orbits are
    {1, 2}, {3, 6}, {4, 8}, {5, 7}; with g1 = xy and g2 = x^2 + y^2 + x the
    components 1, 2, 3 and 6 of _two_form_pair are bent, and 4, 5, 7 and 8
    (a degenerate quadratic part) are not."""
    sp = prime_space(3, 2)
    x, y = np.arange(9) % 3, np.arange(9) // 3
    g1, g2 = x * y % 3, (x * x + y * y + x) % 3
    return (g1, g2) + tuple(classify_bent(p_ary(sp, g)).dual.table for g in (g1, g2))


def test_the_smaller_c_decides_between_not_bent_and_none():
    g1, g2, d1, d2 = _not_bent_at_4()
    # F*_3 = g2^*, but g2^* is not even, so (F_6)^* = 2 g2^*(-x) is not F*_6:
    # the orbit of 3 fails at c = 6, after its representative, yet the
    # representative 4 < 6 is not bent, and NotBent wins
    F, Fstar = _two_form_pair(g1, g2, d1, d2)
    star = [component(Fstar, d).table.tolist() for d in range(1, 9)]
    assert classify_bent(component(F, 3)).dual.table.tolist() in star
    assert classify_bent(component(F, 6)).dual.table.tolist() not in star
    expected = ("NotBent", "component 4 is not bent")
    assert _outcome(dual_bent_certificate, F, Fstar) == expected
    assert _outcome(certificate_per_component, F, Fstar) == expected
    # F*_3 = g2^* + 1 fails at the representative 3 < 4 itself, and None wins
    F, Fstar = _two_form_pair(g1, g2, d1, (d2 + 1) % 3)
    assert _outcome(dual_bent_certificate, F, Fstar) is None
    assert _outcome(certificate_per_component, F, Fstar) is None


def test_colliding_keys_change_no_certificate(monkeypatch):
    # every F* component gets the same key, so each lookup compares the dual
    # with every component: sigma, signs, None and NotBent stay as they were
    cases = [(pair.function, pair.dual) for pair in _oracle_pairs()]
    cases += [(pair.function, Fstar) for pair, Fstar in _wrong_dual_cases()]
    cases += [_bent_then_zero(), _two_form_pair(*_not_bent_at_4())]
    expected = [_outcome(dual_bent_certificate, F, Fstar) for F, Fstar in cases]
    keys = []
    monkeypatch.setattr(spectral, "_table_key", lambda table: keys.append(0) or 0)
    assert [_outcome(dual_bent_certificate, F, Fstar) for F, Fstar in cases] == expected
    assert keys  # the lookups went through the patched key
    kinds = {o if o is None else o[0] if o[0] == "NotBent" else "certified" for o in expected}
    assert kinds == {None, "NotBent", "certified"}


# ---------------------------------------------------------------------------
# the candidate matcher
# ---------------------------------------------------------------------------

MATCH_CASES = [(3, 1), (3, 2), (3, 3), (3, 12), (5, 2), (5, 3), (7, 1), (7, 4), (11, 3), (13, 2)]


@pytest.mark.parametrize("p,n", MATCH_CASES)
def test_candidate_rows_match_themselves(p, n):
    rows, signs, js = candidates(p, n)
    _, _, _, cand_signs, cand_js = _candidate_map(p, n)
    for dtype in (np.int64, np.float32, np.float64):
        matched, which = _match_candidates(rows.astype(dtype), p, n)
        assert matched.all()
        assert (cand_signs[which] == signs).all() and (cand_js[which] == js).all()


@pytest.mark.parametrize("p,n", MATCH_CASES)
def test_perturbed_candidate_rows_match_nothing(p, n):
    rows = candidates(p, n)[0]
    steps = np.concatenate([np.eye(p - 1, dtype=np.int64), -np.eye(p - 1, dtype=np.int64)])
    perturbed = (rows[:, None, :] + steps[None]).reshape(-1, p - 1)
    for dtype in (np.int64, np.float32):
        matched = _match_candidates(perturbed.astype(dtype), p, n)[0]
        assert not matched.any()


@pytest.mark.parametrize("p,n", MATCH_CASES)
def test_rows_sharing_a_candidate_key_match_nothing(p, n):
    # adding w[j] to column i and -w[i] to column j keeps the wrapping key:
    # only the column check tells these rows from the candidates
    w = _candidate_map(p, n)[0]
    rows = candidates(p, n)[0]
    i, j = p - 3, p - 2
    rows[:, i] += w[j]
    rows[:, j] -= w[i]
    assert not _match_candidates(rows, p, n)[0].any()


def test_candidate_keys_are_checked_distinct(monkeypatch):
    class Zero:
        def __init__(self, seed):
            pass

        def getrandbits(self, k):
            return 0

    monkeypatch.setattr(spectral.random, "Random", Zero)
    with pytest.raises(MatchFailure, match="collide"):
        _candidate_map.__wrapped__(5, 2)


def test_perturbed_counts_classify_as_not_bent(monkeypatch):
    # Kumar-Scholtz-Welch: every value of a bent function is a candidate, so
    # a value that matches none means "not bent", never a MatchFailure
    from bentpds.constructions import quad_trace

    f = component(quad_trace(5, 3, 1, 2).function, 1)
    assert classify_bent(f).is_bent
    counts = spectral._char_counts(f.domain, f.table)
    counts[[17, 40], 1] += 1
    monkeypatch.setattr(spectral, "_char_counts", lambda *args: counts)
    cl = classify_bent(f)
    assert not cl.is_bent and cl.dual is None and cl.epsilon is None


# ---------------------------------------------------------------------------
# count-domain classification against the norms-then-match oracle
# ---------------------------------------------------------------------------

def _verdict(f):
    cl = classify_bent(f)
    dual = None if cl.dual is None else cl.dual.table.tolist()
    return cl.is_bent, cl.weakly_regular, cl.regular, cl.epsilon, dual


def test_classify_equals_norm_oracle_on_every_ternary_function_of_two_variables():
    # all 3^8 functions GF(3)^2 -> GF(3) with f(0) = 0
    sp = prime_space(3, 2)
    tables = np.zeros((3 ** 8, 9), dtype=np.int64)
    tables[:, 1:] = np.indices((3,) * 8).reshape(8, -1).T
    bent = weakly = 0
    for table in tables:
        f = p_ary(sp, table)
        verdict = _verdict(f)
        assert verdict == classify_by_norms(f), table.tolist()
        bent += verdict[0]
        weakly += verdict[1]
    assert 0 < weakly <= bent < len(tables)


def _oracle_functions():
    """Random tables and components of constructions at p = 5 and 7, even
    and odd n: non-bent, weakly regular of both signs, and bent but not
    weakly regular."""
    from bentpds.constructions import branched_quad_mm, diag_quad, mm_power, quad_trace

    out = []
    for p, n in [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3)]:
        sp = prime_space(p, n)
        out += [p_ary(sp, _random_table(sp, seed)) for seed in (1, 2)]
    pairs = [
        quad_trace(5, 2, 1, 1), quad_trace(5, 3, 1, 2), quad_trace(7, 3, 1, 3),
        quad_trace(7, 2, 1, 1), mm_power(5, 1, 1, 2, 1), mm_power(7, 1, 1, 3, 5),
        diag_quad(5, 1, 3, (1, 2, 3)), diag_quad(7, 1, 1, (3,)),
        branched_quad_mm(5, 1, 1, 1, 1, 2, 1, 1, 1),     # odd n
        branched_quad_mm(5, 2, 1, 1, 1, 2, 1, 1, 1),     # even n
        branched_quad_mm(7, 1, 1, 1, 1, 1, 3, 1, 1),     # odd n
    ]
    for pair in pairs:
        F = pair.function
        for c in range(1, F.codomain.size):
            comp = component(F, c)
            out.append(comp)
            # and the same function with one value changed
            out.append(p_ary(comp.domain, np.where(np.arange(comp.domain.size) == 1,
                                                   (comp.table + 1) % F.p, comp.table)))
    return out


def test_classify_equals_norm_oracle_at_p_5_and_7():
    verdicts = []
    for f in _oracle_functions():
        verdict = _verdict(f)
        assert verdict == classify_by_norms(f)
        verdicts.append(verdict)
    assert any(not v[0] for v in verdicts)
    assert any(v[1] and v[3] == 1 for v in verdicts)
    assert any(v[1] and v[3] == -1 for v in verdicts)
    assert any(v[0] and not v[1] for v in verdicts)


# ---------------------------------------------------------------------------
# memory of classification and certification
# ---------------------------------------------------------------------------

# Besides the transform's one (p, N) float buffer, classification holds
# either the transform's scratch (SCRATCH_BYTES, at most the buffer's size)
# or the matcher's bool and narrow candidate index per point and its work
# arrays for MATCH_ROWS rows: three int64 entries, two gathered counts and
# bool temporaries, under MATCH_ROW_BYTES a row.  With two buffers and
# N-long int64 keys the peak was 2.0-2.3 buffers.
CLASSIFY_PEAK_BOUND = 1.0  # transform buffers, on top of the terms above
MATCH_ROW_BYTES = 40


def _peak_bound(sp, per_point):
    """CLASSIFY_PEAK_BOUND buffers, the scratch, the matcher's work arrays,
    and per_point bytes for each point."""
    N, p = sp.size, sp.p
    buffer = N * p * exact_float_dtype(N).itemsize
    return (CLASSIFY_PEAK_BOUND * buffer + min(spectral.SCRATCH_BYTES, buffer)
            + MATCH_ROW_BYTES * min(N, spectral.MATCH_ROWS) + per_point * N)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p, n", [(3, 10), (5, 6), (7, 6), (3, 9)])
def test_classify_peak_memory_is_bounded_by_the_transform_buffers(p, n):
    from bentpds.constructions import quad_trace

    sp = prime_space(p, n)
    bent = component(quad_trace(p, n, 1, 1).function, 1)
    for f in (bent, p_ary(sp, _random_table(sp, 4))):
        classify_bent(f)  # warm: candidates, pass matrix and dual map are cached
        cl, peak = _traced_peak(classify_bent, f)
        assert cl.is_bent == (f is bent)
        # the bool and the candidate index of each point
        assert peak <= _peak_bound(sp, 2), peak / _peak_bound(sp, 2)


@pytest.mark.parametrize("args", [(3, 4, 2, 1, 7), (3, 6, 2, 1, 1), (7, 3, 3, 1, 5)],
                         ids=lambda args: "mm_power{}".format(args))
def test_certificate_peak_memory_is_bounded_by_one_transform(args):
    # 3^8 and 3^12 with s = 2, and 7^6 with s = 3: 57 orbits, 49 of them open
    # together when components are taken in the order c = 1, 2, ...
    from bentpds.constructions import mm_power

    pair = mm_power(*args)
    F, sp = pair.function, pair.function.domain
    classify_bent(component(F, 1))  # warm, as above
    cert, peak = _traced_peak(dual_bent_certificate, F, pair.dual)
    assert cert is not None and cert.sigma == pair.sigma
    # the narrow tables of one orbit: the component, the candidate index and
    # its permutation, a dual, a derived dual and the two arrays it passes
    # through, the recomputed Fstar component and its comparison
    assert peak <= _peak_bound(sp, 8), peak / _peak_bound(sp, 8)


def test_certificate_at_7_pow_8_stays_under_700_mb():
    # 5,764,801 points: the float32 transform buffer alone is 161 MB; two
    # buffers, int64 keys and the whole-space scaling maps took 1068 MB
    script = """
import json, resource
from bentpds.constructions import mm_power
from bentpds.spectral import dual_bent_certificate
pair = mm_power(7, 4, 2, 1, 17)
cert = dual_bent_certificate(pair.function, pair.dual)
print(json.dumps({
    "sigma": cert is not None and cert.sigma == pair.sigma,
    "eps": sorted(set(cert.epsilons.values())) if cert else None,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""
    src = str(Path(spectral.__file__).parents[1])
    env = dict(os.environ, BENT_SIZE_CAP="6000000",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["sigma"] and out["eps"] == [1]
    assert out["maxrss_mb"] < 700, out


ORBIT_FIELDS = [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 2), (11, 2), (13, 1), (5, 3)]


@pytest.mark.parametrize("p,m", ORBIT_FIELDS, ids=[f"q={p ** m}" for p, m in ORBIT_FIELDS])
def test_scalar_orbits_match_brute_force_sets(p, m):
    """Every orbit {lambda r : lambda in GF(p)^*}, keyed by its least rank
    in increasing order, lists (lambda r, lambda) in increasing lambda r."""
    cod = canonical_field(p, m)
    expected, seen = {}, set()
    for r in range(1, cod.size):
        if r not in seen:
            expected[r] = sorted((cod.mul(lam, r), lam) for lam in range(1, p))
            seen.update(c for c, _ in expected[r])
    orbits = _scalar_orbits(cod)
    assert list(orbits) == list(expected)
    assert orbits == expected
    assert all(type(c) is int and type(mu) is int for row in orbits.values() for c, mu in row)
