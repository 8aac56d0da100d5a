"""Size guards.

All tables in this toolkit are explicit, so hard caps keep accidental
huge inputs from hanging a session.  BENT_SIZE_CAP in the environment
overrides the field and construction, transform and pair-count guards.
"""
import os

TABLE_CAP = 3 ** 14          # largest p^m of a field, p^n of a construction
WALSH_CAP = 3 ** 12          # largest p^n a transform will process
# largest |D| the pair-count verifier accepts; it bounds both of its routes:
# |D|^2 gathers, or v^2 / 2 multiply-adds with v <= 16 |D|
PAIR_CAP = 65536


def table_cap() -> int:
    return int(os.environ.get("BENT_SIZE_CAP", TABLE_CAP))


def walsh_cap() -> int:
    return int(os.environ.get("BENT_SIZE_CAP", WALSH_CAP))


def pair_cap() -> int:
    return int(os.environ.get("BENT_SIZE_CAP", PAIR_CAP))


def exceeds(p: int, n: int, cap: int) -> bool:
    """p^n > cap for p >= 2 and n >= 0, without forming p^n when n alone
    settles it (an outsized exponent would cost the time it guards)."""
    return n > cap.bit_length() or p ** n > cap
