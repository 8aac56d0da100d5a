"""Structural rules on the package source.

Only field.py reads a Field's tables: every other module goes through its
public methods (add, mul, pow, trace, log_residue, ...), so one rule decides
each question, such as which coset of a subgroup of GF(p^s)^* an element
lies in.

No function defined in a class body is decorated with functools.lru_cache
or functools.cache: such a cache is keyed by self and holds every instance
for the life of the process.  A table derived from an object lives on it
(a cached_property, or a dict such as Field._traces) and dies with it.

Only field.py calls Field( directly, and only space.py Field.from_dict:
every other module takes its fields from canonical_field, so every field
descriptor that comes from outside passes the integer rule on one path.

No line of the package calls .table.astype(: a VectorialFunction stores
its table in the one dtype of its codomain (spectral.rank_dtype), so a
consumer that re-casts it makes a second representation of one table.

Every lookup through a function table goes through spectral._apply, which
takes LOOKUP_POINTS points at a time: outside its body no np.take and no
subscript read has an index that reads a .table attribute or a name
table, so no lookup casts a whole table to intp.  And limits.SCRATCH_BYTES
is the one working-set budget: no module defines MATCH_ROWS,
MM_BLOCK_ENTRIES or _CHUNK beside it.

cli.py calls neither json.load nor json.loads: every file it reads goes
through its one decoder, _READER, which reads tables with numpy.

spectral._certificate names no log_residue, and spectral.py defines no
_scalar_orbits or _multipliers: the certificate reaches each member of an
orbit by walking it, c -> d c and c -> lam c, and takes no discrete log.
Likewise pairs.py defines no _scalar_pairing or _pairing: the pair
counter's symmetry group reaches its tables as the generator's two half
maps, whichever search found it, and one builder (_orbit_tables) serves
both kinds of group.  And spectral.py has one builder of dense digit-pass
matrices: it defines _digit_matrix, which names no pass (_dense_pass,
_shift_pass), and neither _pass_matrices nor _tail_matrix, so the matrix of
T passes comes from the same closed form as a pass's, not from running
passes.

A Space keeps no table of its points: space.py names no cached_property
and defines no neg, and no module reads a .neg attribute (a call of the
method Field.neg( is not a read).  x -> -x goes through the _scaling
tables of the two halves of the rank split, as every GF(p) scaling does.

A point set has one representation: pds.PreimageSet declares exactly the
fields group, mask and descriptor, a bool indicator with no rank array
beside it, and pds._candidacy names no negate, so -D = D is decided by
one check on that indicator and not again on member ranks.

The test oracles (tests/*_oracle.py) take nothing from bentpds.cyclo but
the CyclotomicInt record: the oracle ring does its own zeta^{p-1}
rewrite, so it checks the library's reduction instead of reusing it.
tests/field_oracle.py imports nothing from bentpds, and
tests/space_oracle.py names no Space map (gather_scaled, gather_mul,
gather_dual), no Field.dual_map and no _scaling table, and
tests/pds_oracle.py names none of the pair counter's digit tables
(_rank_split, _half_sub_table, _scaling, _pairing) and reads no Space map
attribute (.negate, .gather_scaled, .gather_mul, .gather_dual), so
each can be compared with the code it checks.

The pair-count route (every function of pairs.py: _rank_split,
_gather_counts, the symmetry search _orbit_group, _least_lift, _lift and
_fixes, _orbit_tables, _dense_counts; and verify_pds_bruteforce
and _candidacy in pds.py) names no transform (_char_counts,
_digit_transform, walsh_full), no _symmetry of F and no certificate, and
pairs.py imports nothing from spectral, so difference counting stays a
route independent of the character criterion and of certification.
"""
import ast
import re
from pathlib import Path

import bentpds
from bentpds import cyclo

FIELD_PRIVATE = re.compile(r"\.\s*(_log|_exp|_traces|_digits|_powers)\b")
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


TABLE_CAST = re.compile(r"\.table\s*\.\s*astype\s*\(")


def test_no_function_table_is_recast():
    assert _lines(TABLE_CAST, set()) == []
    bad = ["tab = F.table.astype(np.min_scalar_type(q - 1))", "w = f.table .astype (np.int64)",
           "t = F.trace(s, y).astype(dtype)", "w = np.asarray(f.table, dtype=np.int64)",
           "t = f.tables.astype(int)"]
    assert [line for line in bad if TABLE_CAST.search(line)] == bad[:2]


def _table_lookups(source: str) -> list[str]:
    """The np.take calls, array.take calls and subscript reads of source,
    outside the body of _apply, whose index reads a .table attribute or a
    name table, as written; a scatter (a subscript that is written) is not
    a lookup."""
    tree = ast.parse(source)
    helper = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_apply"
              for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take":
            at = 1 if getattr(node.func.value, "id", None) in ("np", "numpy") else 0  # a.take(i)
            index = node.args[at : at + 1] + [k.value for k in node.keywords if k.arg == "indices"]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            index = [node.slice]
        else:
            continue
        if any(getattr(inner, "attr", None) == "table" or getattr(inner, "id", None) == "table"
               for i in index for inner in ast.walk(i)):
            found.append(ast.unparse(node))
    return found


BUDGET_FORKS = {"MATCH_ROWS", "MM_BLOCK_ENTRIES", "_CHUNK"}


def _assigned(source: str, names: set[str]) -> list[str]:
    """The names in names that source assigns, anywhere."""
    return [target.id for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id in names]


def test_every_table_lookup_is_the_one_chunked_helper_on_one_budget():
    modules = sorted(Path(bentpds.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text() for path in modules}
    assert {name: _table_lookups(src) for name, src in sources.items()} == {
        name: [] for name in sources}
    assert {name: _assigned(src, BUDGET_FORKS) for name, src in sources.items()} == {
        name: [] for name in sources}
    bad = ("MATCH_ROWS = 1 << 15\n_CHUNK: int = 4096\n"
           "def _apply(values, table):\n    return np.take(values, table[0:8], mode='clip')\n"
           "def lookups(F, Fstar, h, mask, at, x0, table):\n"
           "    at[Fstar.table[0:8]] = 1\n    y = F.table[x0] + F.table[0:8].sum()\n"
           "    np.take(mask, table[0:8], out=y)\n    z = np.take(a=h, indices=Fstar.table)\n"
           "    return np.take(h, Fstar.table), mask[F.table], values.take(F.table[0:8])\n")
    assert sorted(_table_lookups(bad)) == sorted([
        "np.take(mask, table[0:8], out=y)", "np.take(a=h, indices=Fstar.table)",
        "np.take(h, Fstar.table)", "mask[F.table]", "values.take(F.table[0:8])"])
    assert _assigned(bad, BUDGET_FORKS) == ["MATCH_ROWS", "_CHUNK"]


JSON_READS = {"load", "loads"}


def _json_reads(source: str) -> list[str]:
    """The json.load and json.loads that source names, by attribute or by
    import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [a.name for a in node.names if a.name in JSON_READS]
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_READS
              and getattr(node.value, "id", None) == "json"):
            found.append(f"json.{node.attr}")
    return found


def test_cli_reads_every_file_through_its_decoder():
    assert _json_reads((Path(bentpds.__file__).parent / "cli.py").read_text()) == []
    bad = ("import json\nfrom json import dumps, load\n"
           "def read(fh):\n    return json.loads(fh.read()) or load(fh) or json.dumps(0)\n")
    assert _json_reads(bad) == ["load", "json.loads"]


DISCRETE_LOGS = {"log_residue"}
LOG_DERIVATION = {"_scalar_orbits", "_multipliers"}


def _function_source(source: str, name: str) -> str:
    """The source of the top-level function called name."""
    tree = ast.parse(source)
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(source, node)


def _defined(source: str, names: set[str]) -> list[str]:
    """The functions and classes that source defines whose names are in names."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names]


def test_certificate_takes_no_discrete_log():
    source = (Path(bentpds.__file__).parent / "spectral.py").read_text()
    assert _names(_function_source(source, "_certificate"), DISCRETE_LOGS) == []
    assert _defined(source, LOG_DERIVATION) == []
    bad = ('def _scalar_orbits(cod, index):\n    return cod.log_residue(1, index)\n\n'
           'def _certificate(F, Fstar, first):\n    """Takes no log_residue."""\n'
           '    k = F.codomain.log_residue(2, 8)\n    return _multipliers(F, k)\n\n'
           'class _multipliers:\n    pass\n')
    assert _names(_function_source(bad, "_certificate"), DISCRETE_LOGS) == ["log_residue"]
    assert _names(_function_source(bad, "_scalar_orbits"), DISCRETE_LOGS) == ["log_residue"]
    assert _defined(bad, LOG_DERIVATION) == ["_scalar_orbits", "_multipliers"]


PAIRING_FORK = {"_scalar_pairing", "_pairing"}


def test_pair_counter_tables_have_one_builder():
    source = (Path(bentpds.__file__).parent / "pairs.py").read_text()
    assert _defined(source, PAIRING_FORK | {"_orbit_tables"}) == ["_orbit_tables"]
    bad = ('def _scalar_pairing(p, lam):\n    return _orbit_tables(p, lam)\n\n'
           'def _pairing(split, c_lo, c_hi):\n    """Not _scalar_pairing."""\n'
           '    return _scalar_pairing(split.p, c_hi)\n')
    assert _defined(bad, PAIRING_FORK) == ["_scalar_pairing", "_pairing"]


DIGIT_MATRIX_FORK = {"_pass_matrices", "_tail_matrix"}
PASSES = {"_dense_pass", "_shift_pass"}


def test_dense_digit_passes_have_one_matrix_builder():
    source = (Path(bentpds.__file__).parent / "spectral.py").read_text()
    assert _defined(source, DIGIT_MATRIX_FORK | {"_digit_matrix"}) == ["_digit_matrix"]
    assert _names(_function_source(source, "_digit_matrix"), PASSES) == []
    bad = ('def _digit_matrix(p, T, dtype):\n    """Not by _shift_pass."""\n'
           '    eye = np.eye((p - 1) * p ** T)\n    _dense_pass(eye, eye, p)\n    return eye\n\n'
           'def _tail_matrix(p, T, dtype):\n    return _digit_matrix(p, T, dtype).T\n\n'
           'def _pass_matrices(p, dtype):\n    return _digit_matrix(p, 1, dtype)\n')
    assert _defined(bad, DIGIT_MATRIX_FORK | {"_digit_matrix"}) == [
        "_digit_matrix", "_tail_matrix", "_pass_matrices"]
    assert _names(_function_source(bad, "_digit_matrix"), PASSES) == ["_dense_pass"]


def _attribute_reads(source: str, name: str) -> list[str]:
    """The reads of a .name attribute in source, as written; an attribute
    that is called, such as Field.neg(x), is a method call, not a read."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name and id(node) not in called]


def test_a_space_keeps_no_table_of_its_points():
    package = Path(bentpds.__file__).parent
    space = (package / "space.py").read_text()
    assert _names(space, {"cached_property"}) == []
    assert _defined(space, {"neg"}) == []
    modules = sorted(package.glob("*.py"))
    assert {path.name: _attribute_reads(path.read_text(), "neg") for path in modules} == {
        path.name: [] for path in modules}
    bad = ("import functools\nfrom functools import cached_property, lru_cache\n"
           "class Space:\n    @functools.cached_property\n    def neg(self):\n        return 0\n"
           "    def negate(self, x):\n        return self.neg[x]\n"
           "def even(F, sp, x):\n    return F.neg(x) == sp.neg[x] and F.table[sp.neg]\n")
    assert _names(bad, {"cached_property"}) == ["cached_property", "cached_property"]
    assert _defined(bad, {"neg"}) == ["neg"]
    assert sorted(_attribute_reads(bad, "neg")) == ["self.neg", "sp.neg", "sp.neg"]


def _fields(source: str, name: str) -> list[str]:
    """The annotated fields that the top-level class called name declares,
    in order; methods and properties are not fields."""
    node = next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == name)
    return [stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def test_a_point_set_is_one_indicator_checked_once():
    source = (Path(bentpds.__file__).parent / "pds.py").read_text()
    assert _fields(source, "PreimageSet") == ["group", "mask", "descriptor"]
    assert _names(_function_source(source, "_candidacy"), {"negate"}) == []
    bad = ('class PreimageSet:\n    """Not a ranks: np.ndarray field."""\n    group: Space\n'
           '    ranks: np.ndarray\n    mask: np.ndarray\n    descriptor: str\n'
           '    def __len__(self):\n        return self.ranks.size\n\n'
           'def _candidacy(space, D):\n    """Calls no negate."""\n    in_D = D.mask\n'
           '    if not in_D[space.negate(D.ranks)].all():\n        raise NotSymmetric\n'
           '    return in_D\n')
    assert _fields(bad, "PreimageSet") == ["group", "ranks", "mask", "descriptor"]
    assert _names(_function_source(bad, "_candidacy"), {"negate"}) == ["negate"]


CLASS_CACHES = {"lru_cache", "cache"}


def _cached_methods(source: str) -> list[str]:
    """The functions defined in a class body of source that are decorated
    with lru_cache or cache, by name or through functools, called or not."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            for deco in getattr(node, "decorator_list", ()):
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(deco, "id", getattr(deco, "attr", None)) in CLASS_CACHES:
                    found.append(node.name)
    return found


def test_no_method_is_cached_on_its_class():
    package = Path(bentpds.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {path.name: _cached_methods(path.read_text()) for path in modules} == {
        path.name: [] for path in modules}
    bad = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
           "@lru_cache(maxsize=None)\ndef table(p):\n    return p\n"
           "class Field:\n    @functools.lru_cache(maxsize=None)\n    def _trace_table(self, k):\n"
           "        return k\n    @cache\n    def _subfield(self, s):\n        return s\n"
           "    @staticmethod\n    @functools.cache\n    def build(p):\n        return p\n"
           "    @cached_property\n    def dual_map(self):\n        return 0\n")
    assert _cached_methods(bad) == ["_trace_table", "_subfield", "build"]


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


SPACE_MAPS = {"gather_scaled", "gather_mul", "gather_dual", "dual_map"}
SPACE_MAP_ATTRIBUTES = {"negate", "gather_scaled", "gather_mul", "gather_dual"}
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
    bad = ('"""neg, gather_dual, gather_mul and dual_map are only named here."""\n'
           "import bentpds.field\nfrom bentpds import space\nfrom numpy import neg\n"
           "def f(sp, F):\n"
           "    return sp.gather_scaled(2) + F.dual_map[neg] + sp.gather_mul(1, [2])\n")
    assert _bentpds_imports(bad) == ["bentpds.field", "bentpds"]
    assert sorted(_names(bad, SPACE_MAPS)) == ["dual_map", "gather_mul", "gather_scaled"]
    bad = "from bentpds.pds import _rank_split\ndef _scaling(sp):\n    return pds._pairing(sp)\n"
    assert sorted(_names(bad, PAIR_COUNT_TABLES)) == ["_pairing", "_rank_split", "_scaling"]
    bad = ("from bentpds.space import _scaling\nfrom space_oracle import negate\n"
           "def f(sp, u):\n    return (sp.negate(u) + sp.gather_scaled(negate(sp, u), 2)\n"
           "            + sp.gather_dual(u) + sp.gather_mul(u, [2]))\n")
    assert sorted(_names(bad, SPACE_MAPS | {"_scaling"})) == [
        "_scaling", "gather_dual", "gather_mul", "gather_scaled"]
    assert sorted(_attributes(bad, SPACE_MAP_ATTRIBUTES)) == [
        "gather_dual", "gather_mul", "gather_scaled", "negate"]


PDS_ROUTE = {"verify_pds_bruteforce", "_candidacy"}
PAIR_COUNT_ENGINE = {"_rank_split", "_gather_counts", "_orbit_group", "_least_lift", "_lift",
                     "_fixes", "_orbit_tables", "_dense_counts"}
TRANSFORM_NAMES = {"_char_counts", "_digit_transform", "walsh_full", "_symmetry"}


def _route_reads(source: str, route: set[str] | None = None) -> dict[str, list[str]]:
    """For each function of source named in route (every function when
    route is None), the transform names and the names holding
    "certificate" that its body reads, sorted."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and (route is None or node.name in route):
            names = {getattr(inner, "id", None) or getattr(inner, "attr", None)
                     for inner in ast.walk(node)} - {None}
            found[node.name] = sorted(name for name in names if name in TRANSFORM_NAMES
                                      or "certificate" in name.lower())
    return found


def _module_imports(source: str) -> list[str]:
    """The modules that source imports from, relative ones by their name."""
    return [node.module or "" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)]


def test_pair_count_route_uses_no_transform_and_no_certificate():
    package = Path(bentpds.__file__).parent
    engine = (package / "pairs.py").read_text()
    reads = _route_reads(engine)
    assert PAIR_COUNT_ENGINE <= set(reads)
    assert reads == {name: [] for name in reads}
    assert "spectral" not in _module_imports(engine)
    assert _route_reads((package / "pds.py").read_text(), PDS_ROUTE) == {
        name: [] for name in PDS_ROUTE}
    bad = ("from bentpds import spectral\nfrom .spectral import _char_counts\n"
           "def _dense_counts(split):\n    return spectral._char_counts(split) + walsh_full(1)\n"
           "def _lift(F, G):\n    cert = spectral.dual_bent_certificate(F, G)\n"
           "    return _symmetry(F), cert\n"
           "def elsewhere():\n    return _digit_transform(1)\n")
    assert _route_reads(bad, {"_dense_counts", "_lift"}) == {
        "_dense_counts": ["_char_counts", "walsh_full"],
        "_lift": ["_symmetry", "dual_bent_certificate"]}
    assert _route_reads(bad)["elsewhere"] == ["_digit_transform"]
    assert _module_imports(bad) == ["bentpds", "spectral"]
