"""Structural rules on the package source.

Only field.py reads a Field's tables: every other module goes through its
public methods (add, mul, pow, trace, log_residue, ...), so one rule decides
each question, such as which coset of a subgroup of GF(p^s)^* an element
lies in.

Only field.py calls Field( directly, and only space.py Field.from_dict:
every other module takes its fields from canonical_field, so every field
descriptor that comes from outside passes the integer rule on one path.
"""
import re
from pathlib import Path

import bentpds

FIELD_PRIVATE = re.compile(r"\.\s*(_log|_exp|_trace_table|_digits|_powers)\b")
FIELD_CALL = re.compile(r"\bField\s*\(")
FROM_DICT = re.compile(r"\bField\s*\.\s*from_dict\b")


def _lines(pattern, allowed):
    """Lines that match pattern in package modules not named in allowed."""
    package = Path(bentpds.__file__).parent
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name not in allowed
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def test_only_field_reads_a_fields_private_tables():
    assert _lines(FIELD_PRIVATE, {"field.py"}) == []


def test_only_field_builds_a_field_and_only_space_reads_one():
    assert _lines(FIELD_CALL, {"field.py"}) == []
    assert _lines(FROM_DICT, {"field.py", "space.py"}) == []
