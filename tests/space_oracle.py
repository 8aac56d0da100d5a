"""Test-held per-point rank arithmetic of a Space.

A rank's base-p digits are its GF(p)-coordinates, factor 0 least
significant, so every point-level operation here works on digits or factor
parts, one point at a time, from the factor sizes, Field.mul and
Field.trace alone.  None of them calls a Space map (neg, gather_scaled,
gather_dual) or Field.dual_map; dual_rank reads the dual's digits off the
inner products with the basis vectors.  So each library map can be
compared with them point by point.
"""


def split(sp, rank: int) -> tuple[int, ...]:
    """The factor parts of a rank, factor 0 first."""
    out = []
    for f in sp.factors:
        rank, r = divmod(rank, f.size)
        out.append(r)
    return tuple(out)


def join(sp, parts) -> int:
    rank, shift = 0, 1
    for part, f in zip(parts, sp.factors):
        rank += part * shift
        shift *= f.size
    return rank


def digits(sp, rank: int) -> tuple[int, ...]:
    out = []
    for _ in range(sp.dim):
        rank, d = divmod(rank, sp.p)
        out.append(d)
    return tuple(out)


def from_digits(sp, ds) -> int:
    rank = 0
    for d in reversed(ds):
        rank = rank * sp.p + d
    return rank


def add(sp, a: int, b: int) -> int:
    return from_digits(sp, [(x + y) % sp.p for x, y in zip(digits(sp, a), digits(sp, b))])


def scalar_mul(sp, c: int, x: int) -> int:
    """c x for c in GF(p): every coordinate times c."""
    return from_digits(sp, [c * d % sp.p for d in digits(sp, x)])


def negate(sp, x: int) -> int:
    return scalar_mul(sp, -1, x)


def inner_product(sp, a: int, b: int) -> int:
    """Plain product on GF(p) factors, Tr_1^m(a b) on extension factors,
    summed mod p."""
    total = 0
    for f, ra, rb in zip(sp.factors, split(sp, a), split(sp, b)):
        total += ra * rb if f.m == 1 else f.trace(1, f.mul(ra, rb))
    return total % sp.p


def dual_rank(sp, a: int) -> int:
    """The rank u with <a, x> = sum_k u_k x_k for all x: u_k = <a, e_k>,
    e_k the rank p^k."""
    return from_digits(sp, [inner_product(sp, a, sp.p ** k) for k in range(sp.dim)])
