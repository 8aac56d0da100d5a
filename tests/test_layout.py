"""Structural rules on the package source.

Only field.py reads a Field's tables: every other module goes through its
public methods (add, mul, pow, trace, log_residue, ...), so one rule decides
each question, such as which coset of a subgroup of GF(p^s)^* an element
lies in.
"""
import re
from pathlib import Path

import bentpds

FIELD_PRIVATE = re.compile(r"\.\s*(_log|_exp|_trace_table|_digits|_powers)\b")


def test_only_field_reads_a_fields_private_tables():
    package = Path(bentpds.__file__).parent
    reads = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "field.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FIELD_PRIVATE.search(line)
    ]
    assert reads == []
