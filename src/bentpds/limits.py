"""Size guards and the exactness rule of the float BLAS routes.

All tables in this toolkit are explicit, so hard caps keep accidental
huge inputs from hanging a session.  There are two: one on the tables of
fields and constructions, and a lower one on the points p^n that a
transform or the pair counter will process.  BENT_SIZE_CAP in the
environment overrides both.

The radix-p transform (float coefficients of at most p^n points, each
partial sum in [-p^n, p^n], one BLAS product or p^2 slice-adds per digit
pass) and the dense pair counter (float32 indicator products of weighted
counts at most q2 + 1, summed into difference counts at most p^n) sum
integers in floats.  Every entry and partial sum is an integer bounded in
advance, so exact_float_dtype turns that
bound into the narrowest float dtype in which it is exact, and refuses a
bound that no float dtype holds.  Both size their batches by one scratch
budget, SCRATCH_BYTES.
"""
import os

import numpy as np

from .errors import SizeGuard

TABLE_CAP = 3 ** 14          # largest p^m of a field, p^n of a construction
# largest p^n a transform or the pair counter will process; pair counting
# takes |D|^2 < v^2 / 256 gathers, or, with v <= 16 |D|, 1 + (q2 - 1) / n
# indicator products of (q2 + 1) / 2 rows, about v q1 / 2 multiply-adds
# each (q1 q2 = v, n >= 2 the order of the high-half multiplier of a group
# of per-half multiplications fixing D): at most about v^2 / 4 when only
# +-1 fix D, and about v q1 for the two products of a set fixed by a
# primitive high-half multiplier, such as every Maiorana-McFarland and
# spread preimage on GF(p^m)^2
WALSH_CAP = 3 ** 12
# Bytes of the one scratch array of a transform, capped at the size of its
# coefficients, and of the products the dense pair counter runs at once.
# With single-threaded BLAS on a 2-vCPU Xeon VM (2 MiB L2 per core; minima
# of 7 runs, best of 5 rounds) a float32 transform at 3^12 took 6.6 ms with
# 128 KiB, 6.1 ms with 256 KiB, 5.4 ms with 512 KiB, 6.7 ms with 1 MiB and
# 7.4-9.5 ms with a second buffer of its size; 5^8, 7^6 and 13^4 moved by
# under 10% between 128 KiB and 1 MiB.
SCRATCH_BYTES = 1 << 18


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
