import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bentpds import cli
from bentpds.cli import _bundle_dict, _json_line, _table_json, main
from bentpds.constructions import mm_power
from bentpds.field import canonical_field
from bentpds.space import prime_space
from bentpds.spectral import VectorialFunction
from space_oracle import split


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reproduce_examples_is_deterministic_and_green(capsys):
    code1, out1 = run(capsys, "reproduce-examples")
    code2, out2 = run(capsys, "reproduce-examples")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_match"] and len(report["results"]) == 8


def test_pds_params_reference_quadruple(capsys):
    code, out = run(
        capsys,
        "pds-params", "--theorem", "coset-union", "--p", "7", "--s", "2",
        "--ntotal", "8", "--hsize", "16", "--m1", "1", "--m0", "0", "--eps", "1",
    )
    assert code == 0
    d = json.loads(out)
    assert (d["v"], d["k"], d["lambda"], d["mu"]) == (5764801, 1881600, 614705, 613872)


def test_construct_then_certify_pipeline(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    code, out = run(
        capsys,
        "construct", "--family", "mm-power", "--p", "3", "--m", "2", "--s", "1",
        "--a", "1", "--e", "1", "--out", str(bundle),
    )
    assert code == 0
    emitted = json.loads(out)
    assert emitted["family"] == "mm-power"
    assert json.loads(bundle.read_text()) == emitted

    code, out = run(capsys, "certify", "--file", str(bundle))
    assert code == 0
    report = json.loads(out)
    assert report["certified"] and report["sigma_matches_claim"]
    assert report["sigma"] == {"1": "1", "2": "2"} or report["sigma"] == {"1": 1, "2": 2}


def test_walsh_of_zero_function(tmp_path, capsys):
    sp = prime_space(3, 2)
    f = VectorialFunction(sp, canonical_field(3, 1), [0] * 9)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(f.to_dict()))
    code, out = run(capsys, "walsh", "--file", str(path))
    assert code == 0
    spec = json.loads(out)["spectrum"]
    assert spec[0]["coeffs"][0] == 9
    assert all(all(c == 0 for c in row["coeffs"]) for row in spec[1:])


def test_classify_subcommand(tmp_path, capsys):
    sp = prime_space(3, 2)
    table = [(split(sp, r)[0] * split(sp, r)[1]) % 3 for r in range(9)]
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(VectorialFunction(sp, canonical_field(3, 1), table).to_dict()))
    code, out = run(capsys, "classify", "--file", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["is_bent"] and d["weakly_regular"] and d["epsilon"] == 1


def test_pds_extract_and_verify(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "1",
        "--s", "1", "--a", "1", "--e", "1", "--out", str(bundle))
    code, out = run(capsys, "pds-extract", "--file", str(bundle), "--set", "zero")
    assert code == 0
    d = json.loads(out)
    assert d["size"] == 4 and d["members"] == sorted(d["members"])

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--expect", "9,4,1,2")
    assert code == 0 and json.loads(out)["verified"]

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--expect", "9,4,1,0")
    assert code == 1 and not json.loads(out)["verified"]

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "coset",
                    "--l", "2", "--beta", "1", "--method", "characters",
                    "--expect", "9,2,1,0")
    assert code == 0 and json.loads(out)["verified"]


def test_gaussian_period_subcommand(capsys):
    code, out = run(capsys, "gaussian-period", "--p", "3", "--s", "2", "--t", "2", "--a", "1")
    assert code == 0
    d = json.loads(out)
    assert d["semiprimitive"] and d["match"]
    assert d["bruteforce"]["coeffs"] == [1, 0]


def test_usage_errors_exit_2(tmp_path, capsys):
    # missing required family parameter
    code, out = run(capsys, "construct", "--family", "quad-trace", "--p", "3", "--s", "1")
    assert code == 2 and json.loads(out)["error"] == "usage"
    # malformed function file
    bad = tmp_path / "bad.json"
    bad.write_text("{\"space\": []}")
    code, out = run(capsys, "walsh", "--file", str(bad))
    assert code == 2
    # characters method without expectation
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "1",
        "--s", "1", "--a", "1", "--e", "1", "--out", str(bundle))
    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--method", "characters")
    assert code == 2

    def assert_one_usage_record(*argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(out.splitlines()) == 1 and json.loads(out)["error"] == "usage"

    # certify on damaged bundles: an out-of-range table entry, an even
    # characteristic in the space, a non-integer sigma claim
    good = json.loads(bundle.read_text())
    damaged = json.loads(bundle.read_text())
    damaged["function"]["table"][1] = 7
    damaged_p = json.loads(bundle.read_text())
    damaged_p["function"]["space"][0]["p"] = 4
    damaged_sigma = dict(good, sigma={"1": "x", "2": 2})
    # table entries that are not int64 integers, each in place of a 0 entry
    # (numpy would turn 0.5, false and "0" into 0); written spaced and compact
    assert good["function"]["table"][1] == 0
    damaged_entries = []
    for entry in (10 ** 30, 2 ** 63, 0.5, False, "0", None):
        d = json.loads(bundle.read_text())
        d["function"]["table"][1] = entry
        damaged_entries.append(d)
    for i, d in enumerate([damaged, damaged_p, damaged_sigma] + damaged_entries):
        for j, separators in enumerate([None, (",", ":")]):
            path = tmp_path / f"damaged{i}-{j}.json"
            path.write_text(json.dumps(d, separators=separators))
            assert_one_usage_record("certify", "--file", str(path))
    # out-of-range arguments at the library boundary
    assert_one_usage_record("gaussian-period", "--p", "3", "--s", "2", "--t", "2", "--a", "99")
    assert_one_usage_record("gaussian-period", "--p", "4", "--s", "2", "--t", "3", "--a", "1")
    assert_one_usage_record("construct", "--family", "spread", "--p", "3", "--m", "2",
                            "--s", "1", "--labels", "0,0,0,1,1,1,2,2,9")
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "3", "--s", "1",
                            "--n", "4", "--size-a", "9", "--eps", "1")
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "3", "--s", "1",
                            "--n", "4", "--size-a", "0", "--contains-zero", "--eps", "1")
    # ranks outside their field, s = 0, and pds-params outside odd p
    for argv in (
        ["--family", "mm-power", "--p", "3", "--m", "2", "--s", "1", "--a", "99"],
        ["--family", "quad-trace", "--p", "3", "--n", "2", "--s", "1", "--a", "99"],
        ["--family", "diag-quad", "--p", "3", "--s", "1", "--m", "2", "--coeffs", "1,7"],
        ["--family", "mm-qpoly", "--p", "3", "--m", "2", "--s", "1", "--coeffs", "1,99"],
        ["--family", "branched-quad-mm", "--p", "3", "--n", "2", "--m", "1", "--s", "1",
         "--alpha1", "99"],
        ["--family", "mm-power", "--p", "3", "--m", "2", "--s", "0"],
    ):
        assert_one_usage_record("construct", *argv)
    assert_one_usage_record("pds-verify", "--file", str(bundle), "--set", "coset", "--l", "2",
                            "--beta", "99")
    assert_one_usage_record("pds-extract", "--file", str(bundle), "--set", "coset", "--l", "2",
                            "--beta", "-1")
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "4", "--s", "1",
                            "--n", "4", "--size-a", "1", "--eps", "1")
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "3", "--s", "0",
                            "--n", "4", "--size-a", "1", "--eps", "1")
    # parameters too long for Python's int-to-str conversion
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "3", "--s", "1",
                            "--n", "10000", "--size-a", "1", "--eps", "1")


def test_domain_errors_exit_1(capsys):
    code, out = run(capsys, "construct", "--family", "mm-power", "--p", "3",
                    "--m", "2", "--s", "1", "--a", "1", "--e", "2")
    assert code == 1
    d = json.loads(out)
    assert d["error"] == "BadExponent"


def test_construct_output_is_deterministic(capsys):
    args = ["construct", "--family", "spread", "--p", "3", "--m", "2", "--s", "1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_parser_errors_give_one_usage_record(capsys):
    code, out = run(capsys, "construct", "--family", "mm-power", "--p", "x", "--s", "1")
    assert code == 2
    assert len(out.splitlines()) == 1 and json.loads(out)["error"] == "usage"


def test_out_file_gets_the_record_on_every_path(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "1",
        "--s", "1", "--a", "1", "--e", "1", "--out", str(bundle))
    d = json.loads(bundle.read_text())
    d["dual"]["table"] = [0] * len(d["dual"]["table"])
    bundle.write_text(json.dumps(d))
    out_file = tmp_path / "o.json"
    out_file.write_text("old contents\n")
    code, out = run(capsys, "certify", "--file", str(bundle), "--out", str(out_file))
    assert code == 1 and json.loads(out) == {"certified": False}
    assert out_file.read_text() == out
    code, out = run(capsys, "construct", "--family", "quad-trace", "--p", "3", "--s", "1",
                    "--out", str(out_file))
    assert code == 2 and out_file.read_text() == out


# ---------------------------------------------------------------------------
# the table writer and reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("top", [0, 1, 8, 9, 10, 99, 100, 6560])
def test_table_writer_gives_json_dumps_bytes(top):
    rng = np.random.default_rng(top)
    for size in (1, 2, 1000):
        table = rng.integers(0, top + 1, size)
        assert _table_json(table) == json.dumps(table.tolist(), separators=(",", ":"))


BUNDLE_TEXT = _json_line(_bundle_dict(mm_power(3, 1, 1, 1, 1)))
FUNCTION_TABLE = '"table":[0,0,0,0,1,2,0,2,1]'
assert FUNCTION_TABLE in BUNDLE_TEXT


def _with_function_table(body):
    return BUNDLE_TEXT.replace(FUNCTION_TABLE, f'"table":[{body}]')


def _with_params(prefix):
    return BUNDLE_TEXT.replace('"params":{', '"params":{' + prefix)


READER_CASES = {
    "compact": BUNDLE_TEXT,
    "compact, two-digit values": _json_line(_bundle_dict(mm_power(11, 1, 1, 1, 1))),
    "spaced": json.dumps(json.loads(BUNDLE_TEXT)),
    "indented": json.dumps(json.loads(BUNDLE_TEXT), indent=1),
    "function file": json.dumps(json.loads(BUNDLE_TEXT)["function"], separators=(",", ":")),
    "spaced function file": json.dumps(json.loads(BUNDLE_TEXT)["function"]),
    "leading zero": _with_function_table("00,0,0,0,1,2,0,2,1"),
    "late leading zero": _with_function_table("0,0,0,0,1,2,0,2,01"),
    "minus one": _with_function_table("-1,0,0,0,1,2,0,2,1"),
    "exponent": _with_function_table("1e0,0,0,0,1,2,0,2,1"),
    "float": _with_function_table("1.0,0,0,0,1,2,0,2,1"),
    "19 digits": _with_function_table("1000000000000000000,0,0,0,1,2,0,2,1"),
    "int64 max": _with_function_table("9223372036854775807,0,0,0,1,2,0,2,1"),
    "2^63": _with_function_table("9223372036854775808,0,0,0,1,2,0,2,1"),
    "10^30": _with_function_table("1" + "0" * 30 + ",0,0,0,1,2,0,2,1"),
    "out of range": _with_function_table("10,0,0,0,1,2,0,2,1"),
    "empty table": _with_function_table(""),
    "empty entry": _with_function_table("0,,0,0,1,2,0,2,1"),
    "leading comma": _with_function_table(",0,0,0,1,2,0,2,1"),
    "trailing comma": _with_function_table("0,0,0,0,1,2,0,2,1,"),
    "digit after table": BUNDLE_TEXT.replace(FUNCTION_TABLE, FUNCTION_TABLE + "5"),
    "duplicate table": BUNDLE_TEXT.replace(
        FUNCTION_TABLE, FUNCTION_TABLE + ',"table":[0,0,0,0,2,1,0,1,2]'),
    "duplicate, last spaced": BUNDLE_TEXT.replace(
        FUNCTION_TABLE, FUNCTION_TABLE + ',"table": [0, 0, 0, 0, 2, 1, 0, 1, 2]'),
    "duplicate, first spaced": BUNDLE_TEXT.replace(
        FUNCTION_TABLE, '"table": [0, 0, 0, 0, 2, 1, 0, 1, 2],' + FUNCTION_TABLE),
    "escaped quote key": BUNDLE_TEXT.replace(FUNCTION_TABLE, r'"x\"table":[0,1,2],' + FUNCTION_TABLE),
    "escaped quote key only": BUNDLE_TEXT.replace(FUNCTION_TABLE, r'"x\"' + FUNCTION_TABLE[1:]),
    "unicode escape key": BUNDLE_TEXT.replace(FUNCTION_TABLE, r'"\u0074able"' + FUNCTION_TABLE[7:]),
    "table in params": _with_params('"table":[0,1,2],'),
    "table in a string": _with_params(r'"note":"\"table\":[0,1,2]",'),
    "top-level table": '{"table":[0,1,2],' + BUNDLE_TEXT[1:],
    "nested bundle": '{"function":' + BUNDLE_TEXT.rstrip() + "}",
    "four tables": _with_params('"table":[0],"u":{"table":[1]},"v":{"table":[2]},'),
    "marker collision": _with_params('"x":0.0e-0,'),
    "second marker collision": _with_params('"x":0.1e-0,'),
    "float in params": _with_params('"x":0.5,'),
    "truncated": BUNDLE_TEXT[: len(BUNDLE_TEXT) // 2],
    "truncated in a table": BUNDLE_TEXT[: BUNDLE_TEXT.index(FUNCTION_TABLE) + 15],
    "cut before the end": BUNDLE_TEXT.rstrip()[:-1],
    "top-level list": "[0,1,2]",
    "top-level string": '"table"',
    "empty file": "",
}
# the cases the scan answers; every other case goes to json.loads whole
SCANNED = {"compact", "compact, two-digit values", "function file", "minus one", "exponent", "float", "19 digits",
           "int64 max", "2^63", "10^30", "out of range", "empty table",
           "duplicate, first spaced", "unicode escape key", "table in a string",
           "top-level table", "float in params"}


def test_table_reader_gives_what_json_gives(tmp_path, capsys, monkeypatch):
    scan, scanned = cli._scan, set()

    def spy(text):
        doc = scan(text)
        if doc is not None:
            scanned.add(text)
        return doc

    for name, text in READER_CASES.items():
        path = tmp_path / "case.json"
        path.write_text(text)
        outputs = []
        for reader in (lambda text: None, spy):
            monkeypatch.setattr(cli, "_scan", reader)
            outputs.append([run(capsys, command, "--file", str(path))
                            for command in ("certify", "classify")])
        assert outputs[0] == outputs[1], name
    assert {name for name, text in READER_CASES.items() if text in scanned} == SCANNED


def _plain(node):
    """node with its arrays as lists, as json.loads would give it."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_plain(value) for value in node]
    return node


CANONICAL = re.compile(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*")
BODIES = st.one_of(
    st.text("0123456789,-.e ", max_size=12),
    st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=6).map(
        lambda values: ",".join(map(str, values))),
)


@settings(max_examples=400, deadline=None)
@given(BODIES, BODIES)
def test_table_scan_gives_none_or_what_json_gives(first, second):
    for body in (first, second):
        table = cli._parse_table(body)
        entries = [int(v) for v in body.split(",")] if CANONICAL.fullmatch(body) else None
        if entries is None or max(entries) >= 2 ** 63 - 1:
            assert table is None, body
        else:
            assert table is not None and table.tolist() == entries, body
    text = '{"table":[%s],"function":{"table":[%s]}}' % (first, second)
    doc = cli._scan(text)
    try:
        expected = json.loads(text)
    except json.JSONDecodeError:
        assert doc is None
        return
    if doc is not None:
        assert json.dumps(_plain(doc)) == json.dumps(expected)
    # with both tables canonical the scan answers, json is not needed
    assert doc is not None or cli._parse_table(first) is None or cli._parse_table(second) is None


def test_scan_resumes_one_character_after_a_rejected_body():
    # the first '"table":[' runs to the ']' of the canonical table nested
    # in it; that body is rejected and the search resumes one character on,
    # so the nested table is still read, as a regex search reads it, and
    # sends the text to json, since it lies on no table path
    text = '{"table":[-1,{"table":[0,1,2]}],"function":{"table":[1,2]}}'
    assert cli._scan(text) is None
    # under another key the nested list stays json's, and the scan answers
    text = text.replace('{"table":[0', '{"x":[0')
    assert json.dumps(_plain(cli._scan(text))) == json.dumps(json.loads(text))


def test_scan_finds_a_marker_anywhere_outside_the_tables_it_reads():
    # the function table would become the marker 0.0e-0, which parse_float
    # would also put in place of the float in the rejected body before it
    for before in ('{"table":[0.0e-0],', '{"table":[1,0.0e-0],', '{"x":"0.0e-0",'):
        text = before + '"function":{"table":[1,2]}}'
        assert cli._scan(text) is None, text
    text = '{"table":[1,0.1e-0],"function":{"table":[1,2]}}'
    assert json.dumps(_plain(cli._scan(text))) == json.dumps(json.loads(text))


def test_scan_reads_a_two_digit_table_at_scale():
    table = np.random.default_rng(25).integers(0, 100, 300_000)
    text = _json_line({"function": {"table": table}, "table": table % 25})
    doc = cli._scan(text)
    assert doc["function"]["table"].dtype == np.int64
    assert np.array_equal(doc["function"]["table"], table)
    assert np.array_equal(doc["table"], table % 25)
    assert json.dumps(_plain(doc)) == json.dumps(json.loads(text))


@pytest.mark.parametrize("args", [(3, 6, 2, 1, 1), (5, 2, 2, 1, 1)], ids=["3^12", "q=25"])
def test_bundles_are_read_by_the_scan_not_by_json(tmp_path, monkeypatch, args):
    # on a 2-vCPU VM json.loads of the whole 3^12 bundle took 70-115 ms,
    # the scan about 1 ms: a silent fallback would cost a 3^12 call that much
    pair = mm_power(*args)
    path = tmp_path / "bundle.json"
    path.write_text(_json_line(_bundle_dict(pair)))
    text, loads, calls = path.read_text(), json.loads, []

    def spy(s, *args, **kwargs):
        calls.append(s == text)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    bundle = cli._load(str(path))
    assert calls == [False]  # one json.loads, of the text with the tables taken out
    assert np.array_equal(bundle["function"]["table"], pair.function.table)
    assert np.array_equal(bundle["dual"]["table"], pair.dual.table)


def test_deeply_nested_file_gives_one_usage_record(tmp_path, capsys):
    # json raises RecursionError past Python's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (["certify"], ["pds-verify", "--set", "zero"]):
        code, out = run(capsys, *argv, "--file", str(path))
        assert code == 2
        assert len(out.splitlines()) == 1 and json.loads(out)["error"] == "usage"


def test_only_certify_reads_the_dual(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "2", "--s", "1",
        "--out", str(bundle))
    good = json.loads(bundle.read_text())
    out_of_range = json.loads(bundle.read_text())
    out_of_range["dual"]["table"][1] = 7
    no_space = json.loads(bundle.read_text())
    del no_space["dual"]["space"]
    for i, damaged in enumerate([out_of_range, no_space, dict(good, dual="x")]):
        path = tmp_path / f"damaged{i}.json"
        path.write_text(json.dumps(damaged))
        for argv in (["pds-verify", "--set", "zero"], ["pds-extract", "--set", "squares"]):
            assert (run(capsys, *argv, "--file", str(path))
                    == run(capsys, *argv, "--file", str(bundle)))
        code, out = run(capsys, "certify", "--file", str(path))
        assert code == 2
        assert len(out.splitlines()) == 1 and json.loads(out)["error"] == "usage"


def test_pipeline_does_not_import_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call, about
    # 15 ms and 2 MB of peak RSS per process; the library path preimage ->
    # union -> both verifiers must not call them either
    script = """
import sys
from bentpds import pds
from bentpds.cli import main
from bentpds.constructions import mm_power
bundle = sys.argv[1]
codes = [
    main(["construct", "--family", "mm-qpoly", "--p", "3", "--m", "2", "--s", "1",
          "--coeffs", "1", "--out", bundle]),
    main(["certify", "--file", bundle]),
    main(["pds-verify", "--file", bundle, "--set", "zero", "--method", "both"]),
]
assert codes == [0, 0, 0], codes
F = mm_power(3, 2, 2, 1, 1).function
D = pds.preimage(F, [0]).union(pds.coset_preimage(F, 2, 1))
observed = pds.verify_pds_bruteforce(F.domain, D)
assert observed is not None and pds.verify_pds_characters(F.domain, D, observed)
assert "numpy.ma" not in sys.modules
"""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "b.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# contract fuzzing: any argv, any damaged bundle -> exit 0/1/2, one JSON line.
# -h is never drawn (it prints help and exits); --out has its own test above.
# ---------------------------------------------------------------------------

PRIMES = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9]).map(str)
DEGREES = st.integers(-1, 3).map(str)
JUNK = st.sampled_from(["", "x", ",", "1,", "1,2,x", "nan", "1e3", "[]", "0x10", " 3"])
ELEMENTS = st.integers(-2, 30)
LISTS = st.lists(ELEMENTS, min_size=1, max_size=6).map(lambda v: ",".join(map(str, v)))
VALUES = st.one_of(ELEMENTS.map(str), ELEMENTS.map(str), ELEMENTS.map(str), LISTS, JUNK)
FLAG_VALUES = {
    "--coeffs": st.one_of(LISTS, JUNK),
    "--labels": st.one_of(LISTS, JUNK),
    "--expect": st.one_of(LISTS, JUNK),
    "--family": st.sampled_from(["mm-power", "mm-qpoly", "quad-trace", "diag-quad", "spread",
                                 "branched-quad-mm", "x"]),
    "--theorem": st.sampled_from(["subset", "coset-union", "x"]),
    "--set": st.sampled_from(["zero", "squares", "nonsquares", "coset", "x"]),
    "--method": st.sampled_from(["both", "bruteforce", "characters", "x"]),
    "--eps": st.sampled_from(["1", "-1", "0", "x"]),
    "--p": PRIMES,
    "--m": DEGREES,
    "--n": DEGREES,
    "--s": DEGREES,
    "--ntotal": DEGREES,
}
SWITCHES = {"--include-zero", "--contains-zero"}
SET_FLAGS = ["--file", "--set", "--l", "--beta", "--include-zero"]
COMMAND_FLAGS = {
    "construct": (["--family", "--p", "--s", "--m", "--n"],
                  ["--a", "--e", "--alpha1", "--alpha2", "--alpha3", "--beta",
                   "--gamma", "--gamma0", "--coeffs", "--labels"]),
    "walsh": (["--file"], []),
    "classify": (["--file"], []),
    "certify": (["--file"], []),
    "pds-extract": (["--file", "--set"], SET_FLAGS[2:]),
    "pds-verify": (["--file", "--set"], SET_FLAGS[2:] + ["--method", "--expect"]),
    "pds-params": (["--theorem", "--p", "--s", "--eps"],
                   ["--n", "--ntotal", "--size-a", "--contains-zero", "--hsize", "--m1",
                    "--m0"]),
    "gaussian-period": (["--p", "--s", "--t", "--a"], []),
    "reproduce-examples": ([], []),
    "x": ([], []),
}
ALL_FLAGS = sorted({f for req, opt in COMMAND_FLAGS.values() for f in req + opt})
SCALARS = st.sampled_from([None, True, False, -2, 0, 1, 2, 3, 4, 9, 30, 2 ** 63, 10 ** 30,
                           1.5, "x", [], {}])
# json.dumps defaults, and the compact form the CLI writes and scans
SEPARATORS = st.sampled_from([None, (",", ":")])
BASE_BUNDLE = json.loads(BUNDLE_TEXT)


def _paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated_bundle(data) -> dict:
    doc = json.loads(json.dumps(BASE_BUNDLE))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        parent = _at(doc, path[:-1])
        kind = data.draw(st.sampled_from(["delete", "scalar", "p"]), label="kind")
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "scalar":
            parent[path[-1]] = data.draw(SCALARS, label="scalar")
        else:
            p = int(data.draw(PRIMES, label="p"))
            for node in [_at(doc, q) for q in paths]:
                if isinstance(node, dict) and "p" in node:
                    node["p"] = p
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_contract_holds_for_any_input(monkeypatch, tmp_path_factory, data):
    monkeypatch.setenv("BENT_SIZE_CAP", "729")
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)), label="command")
    required, optional = COMMAND_FLAGS[command]
    flags = list(required)
    if flags and data.draw(st.integers(0, 9), label="drop") == 0:
        flags.remove(data.draw(st.sampled_from(required), label="dropped flag"))
    flags += data.draw(st.lists(st.sampled_from(optional or ALL_FLAGS), unique=True,
                                max_size=4), label="optional")
    if data.draw(st.integers(0, 9), label="stray") == 0:
        flags.append(data.draw(st.sampled_from(ALL_FLAGS), label="stray flag"))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in SWITCHES:
            continue
        if flag == "--file":
            path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
            separators = data.draw(SEPARATORS, label="separators")
            path.write_text(json.dumps(_mutated_bundle(data), separators=separators))
            argv.append(str(path))
        else:
            argv.append(data.draw(FLAG_VALUES.get(flag, VALUES), label=flag))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    assert code in (0, 1, 2), (argv, out)
    assert out.count("\n") == 1 and out.endswith("\n"), (argv, out)
    json.loads(out)
