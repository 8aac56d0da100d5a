"""Structural rules on the package source.

Only field.py reads a Field's tables: every other module goes through its
public methods (add, mul, pow, trace, log_residue, ...), so one rule decides
each question, such as which coset of a subgroup of GF(p^s)^* an element
lies in.

Only field.py calls Field( directly, and only space.py Field.from_dict:
every other module takes its fields from canonical_field, so every field
descriptor that comes from outside passes the integer rule on one path.

The test oracles (tests/*_oracle.py) take nothing from bentpds.cyclo but
the CyclotomicInt record: the oracle ring does its own zeta^{p-1}
rewrite, so it checks the library's reduction instead of reusing it.
tests/field_oracle.py imports nothing from bentpds, and
tests/space_oracle.py names no Space map (neg, gather_scaled, gather_dual),
no Field.dual_map and no _scaling table, and tests/pds_oracle.py names
none of the pair counter's digit tables (_rank_split, _half_sub_table,
_scaling, _pairing) and reads no Space map attribute (.neg, .negate,
.gather_scaled, .gather_dual), so each can be compared with the code it
checks.
"""
import ast
import re
from pathlib import Path

import bentpds
from bentpds import cyclo

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


def _cyclo_imports(source: str) -> list[str]:
    """What source takes from bentpds.cyclo besides CyclotomicInt: names
    imported from it or through the package, and the module itself."""
    names = {name for name, value in vars(cyclo).items()
             if getattr(value, "__module__", None) == cyclo.__name__} | {"cyclo"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "bentpds.cyclo":
            found += [a.name for a in node.names if a.name != "CyclotomicInt"]
        elif isinstance(node, ast.ImportFrom) and node.module == "bentpds":
            found += [a.name for a in node.names if a.name in names - {"CyclotomicInt"}]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("bentpds.cyclo")]
        elif isinstance(node, ast.Attribute) and node.attr == "cyclo":
            found.append("cyclo")
    return found


def test_oracles_take_only_the_value_record_from_cyclo():
    oracles = sorted(Path(__file__).parent.glob("*_oracle.py"))
    assert "ring_oracle.py" in [path.name for path in oracles]
    assert {path.name: _cyclo_imports(path.read_text()) for path in oracles} == {
        path.name: [] for path in oracles}
    bad = ("from bentpds.cyclo import CyclotomicInt, reduce_counts\n"
           "from bentpds import gauss_sum\nimport bentpds.cyclo\nbentpds.cyclo.gauss_sum(3)\n")
    assert _cyclo_imports(bad) == ["reduce_counts", "gauss_sum", "bentpds.cyclo", "cyclo"]


SPACE_MAPS = {"neg", "gather_scaled", "gather_dual", "dual_map"}
SPACE_MAP_ATTRIBUTES = {"neg", "negate", "gather_scaled", "gather_dual"}
PAIR_COUNT_TABLES = {"_rank_split", "_half_sub_table", "_scaling", "_pairing",
                     "_compose", "_gather_counts", "_dense_counts"}


def _bentpds_imports(source: str) -> list[str]:
    """The bentpds modules that source imports, by either import form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        found += [name for name in modules if name.split(".")[0] == "bentpds"]
    return found


def _names(source: str, names: set[str]) -> list[str]:
    """The identifiers, attributes and imported names of source that are in
    names; the words of docstrings and comments are not read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        found += [n for n in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None)) if n in names]
    return found


def _attributes(source: str, names: set[str]) -> list[str]:
    """The attributes that source reads whose names are in names."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_oracles_share_no_code_with_what_they_check():
    tests = Path(__file__).parent
    assert _bentpds_imports((tests / "field_oracle.py").read_text()) == []
    assert _names((tests / "space_oracle.py").read_text(), SPACE_MAPS | {"_scaling"}) == []
    assert _names((tests / "pds_oracle.py").read_text(), PAIR_COUNT_TABLES) == []
    assert _attributes((tests / "pds_oracle.py").read_text(), SPACE_MAP_ATTRIBUTES) == []
    bad = ('"""neg, gather_dual and dual_map are only named here."""\n'
           "import bentpds.field\nfrom bentpds import space\nfrom numpy import neg\n"
           "def f(sp, F):\n    return sp.gather_scaled(2) + F.dual_map[neg]\n")
    assert _bentpds_imports(bad) == ["bentpds.field", "bentpds"]
    assert sorted(_names(bad, SPACE_MAPS)) == ["dual_map", "gather_scaled", "neg", "neg"]
    bad = "from bentpds.pds import _rank_split\ndef _scaling(sp):\n    return pds._pairing(sp)\n"
    assert sorted(_names(bad, PAIR_COUNT_TABLES)) == ["_pairing", "_rank_split", "_scaling"]
    bad = ("from bentpds.space import _scaling\nfrom space_oracle import negate\n"
           "def f(sp, u):\n    return sp.negate(u) + sp.neg[negate(sp, u)] + sp.gather_dual(u)\n")
    assert sorted(_names(bad, SPACE_MAPS | {"_scaling"})) == ["_scaling", "gather_dual", "neg"]
    assert sorted(_attributes(bad, SPACE_MAP_ATTRIBUTES)) == ["gather_dual", "neg", "negate"]
