import numpy as np
import pytest

from bentpds.constructions import (
    diag_quad,
    mm_power,
    mm_qpoly,
    quad_trace,
    regular_spread,
    spread_bent,
    branched_quad_mm,
)
from bentpds.errors import (
    BadExponent,
    NotPermutation,
    SizeGuard,
    UnbalancedLabeling,
    ZeroArgument,
    ZeroCoefficient,
)
from bentpds.field import canonical_field
from bentpds.space import Space
from bentpds.spectral import classify_bent, component, dual_bent_certificate
from space_oracle import inner_product, split


def assert_certified(pair):
    cert = dual_bent_certificate(pair.function, pair.dual)
    assert cert is not None, f"{pair.family} {pair.params} failed to certify"
    assert cert.sigma == pair.sigma, f"{pair.family} sigma mismatch"
    if pair.epsilons is not None:
        assert cert.epsilons == pair.epsilons, f"{pair.family} epsilon mismatch"
    return cert


def assert_symmetric_vanishing_at_zero(F):
    sp = F.domain
    assert F(0) == 0
    for x in range(sp.size):
        assert F(sp.negate(x)) == F(x)


def test_mm_power_smallest_instance():
    pair = mm_power(3, 1, 1, 1, 1)
    sp = pair.function.domain
    for r in range(9):
        x, y = split(sp, r)
        assert pair.function(r) == (x * y) % 3
        assert pair.dual(r) == (-x * y) % 3
    assert pair.sigma == {1: 1, 2: 2}
    assert_certified(pair)


def test_mm_power_sigma_exponent():
    # e = 5 over F_7: u = 5 and c^{-5} = c, the identity on F_7^*
    pair = mm_power(7, 1, 1, 1, 5)
    assert pair.sigma == {c: c for c in range(1, 7)}
    assert_certified(pair)


def test_mm_power_rejects_bad_exponent():
    with pytest.raises(BadExponent):
        mm_power(3, 2, 1, 1, 2)  # gcd(2, 8) != 1
    with pytest.raises(BadExponent, match="gcd"):
        mm_power(3, 2, 1, 1, 0)  # gcd(0, 8) != 1
    with pytest.raises(BadExponent, match="non-negative"):
        mm_power(3, 2, 1, 1, -1)  # gcd(-1, 8) = 1, but 0^{-1} is undefined
    with pytest.raises(ZeroArgument):
        mm_power(3, 2, 1, 0, 1)


@pytest.mark.parametrize("p,m,s,a,e", [(3, 2, 1, 1, 1), (3, 2, 2, 1, 3), (3, 2, 2, 4, 1)])
def test_mm_power_certifies(p, m, s, a, e):
    pair = mm_power(p, m, s, a, e)
    assert_symmetric_vanishing_at_zero(pair.function)
    assert_certified(pair)


def test_mm_qpoly_rejects_non_permutation():
    mm_qpoly(3, 2, 1, 1, (0, 1))  # L(x) = x^3 permutes GF(9)
    with pytest.raises(NotPermutation):
        mm_qpoly(3, 2, 1, 1, (1, 1))  # x + x^3 has kernel {0, x, 2x}


def test_mm_qpoly_identity_reduces_to_mm_power():
    a = 4
    via_qpoly = mm_qpoly(3, 2, 1, a, (1,))
    via_power = mm_power(3, 2, 1, a, 1)
    assert np.array_equal(via_qpoly.function.table, via_power.function.table)
    assert np.array_equal(via_qpoly.dual.table, via_power.dual.table)


# (build, q): the Maiorana-McFarland grid of each is (q, q)
MM_GRIDS = [
    (lambda: mm_power(3, 2, 1, 2, 3), 9),
    (lambda: mm_power(5, 2, 2, 2, 5), 25),
    (lambda: mm_power(7, 1, 1, 3, 5), 7),
    (lambda: mm_qpoly(3, 2, 1, 1, (0, 1)), 9),
    (lambda: mm_qpoly(5, 2, 1, 2, (0, 1)), 25),
    (lambda: mm_qpoly(7, 1, 1, 2, (3,)), 7),
    (lambda: branched_quad_mm(3, 2, 1, 1, 1, 1, 1, 1, 1), 3),
    (lambda: branched_quad_mm(5, 2, 1, 1, 1, 1, 1, 1, 1), 5),
    (lambda: branched_quad_mm(7, 1, 1, 1, 1, 1, 1, 1, 1), 7),  # 7^3, the least
]


@pytest.mark.parametrize("build, q", MM_GRIDS)
def test_mm_grid_in_blocks_of_a_few_rows_equals_one_block(build, q, monkeypatch):
    from bentpds import constructions

    whole = build()
    assert constructions.MM_BLOCK_ENTRIES >= q * q  # one block by default
    for rows in (1, 2):  # two rows leave a short last block at odd q
        monkeypatch.setattr(constructions, "MM_BLOCK_ENTRIES", rows * q + 1)
        blocked = build()
        assert np.array_equal(blocked.function.table, whole.function.table)
        assert np.array_equal(blocked.dual.table, whole.dual.table)
        assert blocked.function.table.dtype == whole.function.table.dtype


@pytest.mark.parametrize(
    "p,m,s,a,coeffs",
    [(3, 2, 1, 1, (0, 1)), (3, 2, 2, 1, (1,)), (3, 2, 1, 2, (0, 2))],
)
def test_mm_qpoly_certifies(p, m, s, a, coeffs):
    pair = mm_qpoly(p, m, s, a, coeffs)
    assert_symmetric_vanishing_at_zero(pair.function)
    assert_certified(pair)


def test_quad_trace_epsilon_follows_character():
    F9 = canonical_field(3, 2)
    regular = quad_trace(3, 2, 1, 1)
    cert = assert_certified(regular)
    assert set(cert.epsilons.values()) == {1}
    a_ns = min(F9.nonsquares())
    flipped = quad_trace(3, 2, 1, a_ns)
    cert2 = assert_certified(flipped)
    assert set(cert2.epsilons.values()) == {-1}


@pytest.mark.parametrize("p,n,s,a", [(3, 2, 2, 1), (5, 2, 1, 1), (3, 4, 2, 1), (3, 1, 1, 1)])
def test_quad_trace_certifies(p, n, s, a):
    pair = quad_trace(p, n, s, a)
    assert_symmetric_vanishing_at_zero(pair.function)
    assert_certified(pair)


def test_quad_trace_sigma_is_inversion():
    pair = quad_trace(3, 2, 2, 1)
    sub = pair.function.codomain
    assert pair.sigma == {c: sub.inv(c) for c in range(1, 9)}


def test_diag_quad_matches_quad_trace_when_single_block():
    for s in (1, 2):
        diag = diag_quad(3, s, 1, (2,))
        quad = quad_trace(3, s, s, 2)
        assert np.array_equal(diag.function.table, quad.function.table)
        assert np.array_equal(diag.dual.table, quad.dual.table)
        assert diag.epsilons == quad.epsilons


@pytest.mark.parametrize(
    "p,s,m,coeffs",
    [(3, 1, 2, (1, 1)), (3, 1, 2, (1, 2)), (3, 2, 2, (1, 4)), (5, 1, 2, (1, 3)), (3, 1, 4, (1, 2, 1, 1))],
)
def test_diag_quad_certifies(p, s, m, coeffs):
    pair = diag_quad(p, s, m, coeffs)
    assert_symmetric_vanishing_at_zero(pair.function)
    assert_certified(pair)


def test_diag_quad_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficient):
        diag_quad(3, 1, 2, (1, 0))


def _spread_lines(p, m):
    """The regular spread from its definition, as point sets: {0} x F, then
    {(x, a x)} for every a in rank order; the point (x, y) has rank x + q y."""
    F = canonical_field(p, m)
    q = F.size
    lines = [{q * y for y in range(q)}]
    lines += [{x + q * F.mul(a, x) for x in range(q)} for a in range(q)]
    return lines


def test_regular_spread_is_a_spread():
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        line, perp = regular_spread(p, m)
        lines = _spread_lines(p, m)
        assert line.shape == (p ** (2 * m),) and len(perp) == len(lines) == p ** m + 1
        # the lines cover the space and meet only at 0, and line[] names them
        assert set().union(*lines) == set(range(line.size))
        for i, points in enumerate(lines):
            assert all(line[z] == i for z in points - {0})
        assert line[0] == 0
        # orthogonal complements permute the spread, as an involution, and
        # every point of line i is orthogonal to every point of line perp[i]
        assert sorted(perp.tolist()) == list(range(len(lines)))
        assert all(perp[perp[i]] == i for i in range(len(perp)))
        sp = Space([canonical_field(p, m)] * 2)
        for i, points in enumerate(lines):
            assert all(inner_product(sp, a, b) == 0 for a in points for b in lines[perp[i]])


def test_spread_labeling_must_balance():
    with pytest.raises(UnbalancedLabeling):
        spread_bent(3, 2, 1, labeling=[0] * 9)
    with pytest.raises(UnbalancedLabeling):
        spread_bent(3, 2, 1, labeling=[0, 1, 2])


def test_spread_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        spread_bent(3, 2, 1, labeling=[0, 0, 0, 1, 1, 1, 2, 2, 9])
    with pytest.raises(ValueError):
        spread_bent(3, 2, 1, labeling=[0, 0, 0, 1, 1, 1, -1, -1, -1])
    with pytest.raises(ValueError):
        spread_bent(3, 2, 1, gamma0=3)


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 2, 1), (3, 2, 2), (5, 1, 1), (3, 3, 1)])
def test_spread_certifies_with_identity_sigma(p, m, s):
    pair = spread_bent(p, m, s)
    assert pair.sigma == {c: c for c in range(1, p ** s)}
    assert_symmetric_vanishing_at_zero(pair.function)
    assert_certified(pair)


def test_spread_function_is_constant_on_punctured_lines():
    pair = spread_bent(3, 2, 1)
    for points in _spread_lines(3, 2):
        vals = {pair.function(z) for z in points if z != 0}
        assert len(vals) == 1


# -- the three-block construction -------------------------------------------

def _branched_reference(p, n, m, s, alphas, beta, gamma, l_coeffs, point):
    """Independent point evaluator used as an oracle for the table builder."""
    Fn, Fm = canonical_field(p, n), canonical_field(p, m)
    sub = canonical_field(p, s)
    x, y1, y2 = point
    # L(y2) = sum_i c_i y2^{q^i}, q = p^s
    l_y2 = 0
    for i, c in enumerate(l_coeffs):
        l_y2 = Fm.add(l_y2, Fm.mul(c, Fm.pow(y2, p ** (s * i))))
    sel = Fm.trace(s, Fm.mul(gamma, Fm.mul(y2, y2)))
    if sel == 0:
        alpha = alphas[0]
    elif sel in {sub.mul(y, y) for y in range(1, sub.size)}:
        alpha = alphas[1]
    else:
        alpha = alphas[2]
    fx = Fn.trace(s, Fn.mul(alpha, Fn.mul(x, x)))
    gy = Fm.trace(s, Fm.mul(beta, Fm.mul(y1, l_y2)))
    return sub.add(fx, gy)


def test_branched_quad_mm_table_matches_reference_evaluator():
    p, n, m, s = 3, 2, 2, 1
    alphas, beta, gamma, l_coeffs = (1, 2, 4), 2, 4, (0, 1)
    pair = branched_quad_mm(p, n, m, s, *alphas, beta, gamma, l_coeffs)
    sp = pair.function.domain
    for r in range(0, sp.size, 3):
        point = split(sp, r)
        assert pair.function(r) == _branched_reference(
            p, n, m, s, alphas, beta, gamma, l_coeffs, point
        )


def test_branched_quad_mm_zero_selector_uses_first_alpha():
    p, n, m, s = 3, 2, 1, 1
    pair = branched_quad_mm(p, n, m, s, 2, 1, 1, 1, 1)
    sp = pair.function.domain
    Fn = canonical_field(p, n)
    sub = canonical_field(p, s)
    Fm = canonical_field(p, m)
    for r in range(sp.size):
        x, y1, y2 = split(sp, r)
        if Fm.trace(s, Fm.mul(1, Fm.mul(y2, y2))) == 0:
            expected = sub.add(
                Fn.trace(s, Fn.mul(2, Fn.mul(x, x))),
                Fm.trace(s, Fm.mul(y1, y2)),
            )
            assert pair.function(r) == expected


def test_branched_quad_mm_starts_at_zero():
    pair = branched_quad_mm(3, 2, 1, 1, 1, 1, 1, 1, 1)
    assert pair.function(0) == 0
    assert_symmetric_vanishing_at_zero(pair.function)


@pytest.mark.parametrize(
    "p,n,m,s,alphas,gamma",
    [
        (3, 2, 1, 1, (1, 1, 1), 1),
        (3, 2, 1, 1, (1, 2, 4), 2),   # mixed quadratic characters
        (3, 2, 2, 1, (1, 1, 1), 4),
        (5, 2, 1, 1, (1, 1, 1), 1),
    ],
)
def test_branched_quad_mm_certifies(p, n, m, s, alphas, gamma):
    pair = branched_quad_mm(p, n, m, s, *alphas, 1, gamma)
    cert = assert_certified(pair)
    sub = pair.function.codomain
    assert cert.sigma == {c: sub.inv(c) for c in range(1, sub.size)}


def test_branched_quad_mm_mixed_characters_give_non_weakly_regular_components():
    pair = branched_quad_mm(3, 2, 1, 1, 1, 2, 4, 1, 2)
    assert pair.epsilons is None
    cl = classify_bent(component(pair.function, 1))
    assert cl.is_bent and not cl.weakly_regular


def test_branched_quad_mm_large_instance_spot_checks():
    # a 3^14-point instance: GF(3^6) x GF(3^4) x GF(3^4) -> GF(3^2) with
    # branch coefficients 1, w, w^2 for a primitive w
    p, n, m, s = 3, 6, 4, 2
    Fn = canonical_field(p, n)
    w = Fn.primitive_element
    alphas = (1, w, Fn.mul(w, w))
    pair = branched_quad_mm(p, n, m, s, *alphas, 1, 1)
    sp = pair.function.domain
    assert sp.size == 3 ** 14
    assert pair.function(0) == 0
    rng = np.random.default_rng(42)
    for r in rng.integers(0, sp.size, size=40):
        point = split(sp, int(r))
        assert pair.function(int(r)) == _branched_reference(
            p, n, m, s, alphas, 1, 1, (1,), point
        )


def test_constructors_refuse_tables_over_the_cap(monkeypatch):
    monkeypatch.setenv("BENT_SIZE_CAP", "81")
    with pytest.raises(SizeGuard):
        mm_power(3, 3, 1, 1, 1)
    with pytest.raises(SizeGuard):
        mm_qpoly(3, 3, 1, 1, (1,))
    with pytest.raises(SizeGuard):
        quad_trace(3, 6, 1, 1)
    with pytest.raises(SizeGuard):
        diag_quad(3, 1, 6, (1,) * 6)
    with pytest.raises(SizeGuard):
        spread_bent(3, 3, 1)
    with pytest.raises(SizeGuard):
        branched_quad_mm(3, 2, 2, 1, 1, 1, 1, 1, 1)


def test_regular_spread_refuses_points_over_the_default_cap(monkeypatch):
    # it built two int64 arrays of 3^16 entries, though spread_bent(3, 8, 1)
    # refuses them; the check comes first, so nothing is allocated
    monkeypatch.delenv("BENT_SIZE_CAP", raising=False)
    with pytest.raises(SizeGuard):
        regular_spread(3, 8)


@pytest.mark.parametrize("build, what", [
    (lambda: mm_power(3, 2, 1, 1, 1.5), "e"),
    (lambda: mm_qpoly(3, 2, 1, 1, [1.5]), "q-polynomial coefficient"),
    (lambda: mm_qpoly(3, 2, 1, 1, [True]), "q-polynomial coefficient"),
    (lambda: branched_quad_mm(3, 1, 1, 1, 1, 1, 1, 1, 1, [1.0]), "q-polynomial coefficient"),
    (lambda: diag_quad(3, 1, 2, [1.0, True]), "coefficient"),
    (lambda: spread_bent(3, 2, 1, [0, 1, 2] * 2 + [0, 1, 2.0]), "label"),
    (lambda: spread_bent(3, 2, 1, None, 0.9), "gamma0"),
])
def test_constructors_take_integer_arguments_only(build, what):
    # int() made [1], [1, 1] and gamma0 = 0 of 1.5, [1.0, True] and 0.9
    with pytest.raises(ValueError, match=f"^{what} = .* must be an integer$"):
        build()


def test_constructors_record_numpy_integers_as_ints():
    pairs = [mm_power(3, 2, 1, 1, np.int64(1)), mm_qpoly(3, 2, 1, 1, [np.int64(1)]),
             diag_quad(3, 1, 2, [np.int64(1), 2]), spread_bent(3, 2, 1, None, np.int64(1))]
    for pair in pairs:
        for value in pair.params.values():
            assert all(type(x) is int for x in (value if isinstance(value, list) else [value]))
