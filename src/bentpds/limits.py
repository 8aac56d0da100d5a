"""Size guards and the exactness rule of the float BLAS routes.

All tables in this toolkit are explicit, so hard caps keep accidental
huge inputs from hanging a session.  There are two: one on the tables of
fields and constructions, and a lower one on the points p^n that a
transform or the pair counter will process.  BENT_SIZE_CAP in the
environment overrides both.

The radix-p transform (float counts at most p^n, one BLAS product or p^2
slice-adds per digit pass) and the dense pair counter (float32 indicator
products of weighted counts at most q2 + 1, summed into difference counts
at most p^n) sum counts in floats.  Every entry and
partial sum is an integer bounded in advance, so exact_float_dtype turns that
bound into the narrowest float dtype in which it is exact, and refuses a
bound that no float dtype holds.
"""
import os

import numpy as np

from .errors import SizeGuard

TABLE_CAP = 3 ** 14          # largest p^m of a field, p^n of a construction
# largest p^n a transform or the pair counter will process; pair counting
# takes |D|^2 < v^2 / 256 gathers, or, with v <= 16 |D|, 1 + (q2 - 1) / |S|
# indicator products of (q2 + 1) / 2 rows, about v q1 / 2 multiply-adds
# each (q1 q2 = v, S the scalars fixing D up to sign, |S| >= 2), at most
# about v^2 / 4
WALSH_CAP = 3 ** 12


def table_cap() -> int:
    return int(os.environ.get("BENT_SIZE_CAP", TABLE_CAP))


def walsh_cap() -> int:
    return int(os.environ.get("BENT_SIZE_CAP", WALSH_CAP))


def exceeds(p: int, n: int, cap: int) -> bool:
    """p^n > cap for p >= 2 and n >= 0, without forming p^n when n alone
    settles it (an outsized exponent would cost the time it guards)."""
    return n > cap.bit_length() or p ** n > cap


def exact_float_dtype(bound: int) -> np.dtype:
    """float32 while bound < 2^24, float64 while bound < 2^53, SizeGuard
    past that: every integer of magnitude <= bound is exact in the dtype
    returned, so a sum of counts that bound limits is computed exactly."""
    if bound < 2 ** 24:
        return np.dtype(np.float32)
    if bound < 2 ** 53:
        return np.dtype(np.float64)
    raise SizeGuard(f"integers up to {bound} are not exact in float64")
