"""Batch command-line front end.

Subcommands tie constructions, classification, certification, and PDS
verification into reproducible runs.  All I/O is JSON; identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Every run, errors included, writes one JSON record
to stdout and, with --out, the same record to that file.

Function tables cross the JSON boundary as integer arrays.  The writer
gives the bytes json.dumps gives a table's list, writing one-digit values
into every other byte of a row of commas.  The reader is one
json.JSONDecoder whose parse_array reads the body up to the next ']' with
numpy when it is made of canonical non-negative integers (digits and
commas, no empty entry, no leading zero, below 2^63 - 1): a one-digit body
as digit-comma byte pairs, any other through numpy's text parser.  Any
other array is read from its '[' by json's own C scanner.  An array stays
one under the key "table" alone; with every other array a list, the
reader gives what json.loads gives.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import constructions, pds, spectral
from .errors import BentError
from .field import _check_integer
from .pds import PdsParams
from .spectral import VectorialFunction

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(Exception):
    pass


_INT64_MAX = np.iinfo(np.int64).max
_COMMA = ord(",")


def _parse_table(body: str):
    """The entries of a list body as an integer array, or None unless the
    body is digits and commas alone, with no empty entry, and each entry is
    a canonical integer (no leading zero) below 2^63 - 1, where json would
    give the same Python ints."""
    raw = (body + ",").encode()  # every entry ends in a comma
    if len(raw) % 2 == 0:
        # one digit per entry, as for codomains up to GF(9): each
        # little-endian byte pair is a digit and a comma, 0x2C30 to 0x2C39
        table = np.frombuffer(raw, "<u2") - 0x2C30
        if (table <= 9).all():  # anything else wraps above 9
            return table
    raw = np.frombuffer(raw, np.uint8)
    comma = raw == _COMMA
    if comma[0] or (comma[1:] & comma[:-1]).any() or not ((raw - 48 <= 9) | comma).all():
        return None
    n = int(np.count_nonzero(comma))
    table = np.fromstring(body, dtype=np.int64, sep=",")  # clamps at 2^63 - 1
    top = int(table.max())
    if table.size != n or top == _INT64_MAX:
        return None
    # the decimal length of each value, summed: equal to the digit count of
    # the body exactly when no entry has a leading zero
    digits = n + sum(int(np.count_nonzero(table >= 10 ** k)) for k in range(1, len(str(top))))
    return table if digits == raw.size - n else None


def _array(s_and_end, scan_once):
    """parse_array for _READER: the array whose body starts at end, as
    _parse_table reads it when that body, up to the next ']', is canonical,
    else as the plain decoder reads it from its '['."""
    s, end = s_and_end
    close = s.find("]", end)
    table = _parse_table(s[end:close]) if close >= 0 else None
    return (table, close + 1) if table is not None else _PLAIN.scan_once(s, end - 1)


def _keep_tables(pairs) -> dict:
    """object_pairs_hook for _READER: an array stays one under "table"
    alone; under any other key it is the list json gives."""
    return {key: value.tolist() if isinstance(value, np.ndarray) and key != "table" else value
            for key, value in pairs}


def _top_level(s, idx):
    """scan_once for _READER: a top-level array, too, is the list json gives."""
    value, end = _scan_once(s, idx)
    return value.tolist() if isinstance(value, np.ndarray) else value, end


_PLAIN = json.JSONDecoder()
_READER = json.JSONDecoder(object_pairs_hook=_keep_tables)
_READER.parse_array = _array
_scan_once = json.scanner.py_make_scanner(_READER)  # the C scanner calls no parse_array
_READER.scan_once = _top_level


def _load_json(path):
    try:
        with open(path) as fh:
            return _READER.decode(fh.read())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise UsageError(f"cannot read JSON from {path}: {exc}")


def _function(d) -> VectorialFunction:
    if not isinstance(d, dict):
        raise UsageError("function file must hold a JSON object")
    for key in ("space", "codomain", "table"):
        if key not in d:
            raise UsageError(f"function object lacks '{key}'")
    cod = d["codomain"]
    if not isinstance(cod, dict) or "p" not in cod or "s" not in cod:
        raise UsageError("codomain must be {'p': int, 's': int}")
    if not isinstance(d["table"], (list, np.ndarray)):
        raise UsageError("table must be a list of integers")
    try:
        return VectorialFunction.from_dict(d)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed function file: {exc}")


def _load(path) -> dict:
    """A construct bundle, or a function file as its 'function', as read.
    Each part is validated by the command that reads it: only certify
    reads 'dual', 'sigma' and 'epsilons'."""
    d = _load_json(path)
    return d if isinstance(d, dict) and "function" in d else {"function": d}


def _load_function(path) -> VectorialFunction:
    return _function(_load(path)["function"])


def _function_dict(F: VectorialFunction) -> dict:
    """F.to_dict() with the table left an array, for _json_line to render."""
    return {"space": F.domain.to_list(), "codomain": {"p": F.p, "s": F.s}, "table": F.table}


def _claims(sigma: dict, epsilons: dict | None) -> dict:
    """sigma and epsilons as records hold them: keyed by str(c), c ascending."""
    return {
        "sigma": {str(c): d for c, d in sorted(sigma.items())},
        "epsilons": None if epsilons is None else {str(c): e for c, e in sorted(epsilons.items())},
    }


def _bundle_dict(pair: constructions.ConstructedPair) -> dict:
    return {
        "family": pair.family,
        "params": pair.params,
        "function": _function_dict(pair.function),
        "dual": _function_dict(pair.dual),
        **_claims(pair.sigma, pair.epsilons),
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _build(entry, args):
    """entry = (options, builder): builder(args) once args gives each option, in turn."""
    names, build = entry
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for this invocation")
    return build(args)


# --family -> (options it needs, constructor call); the --family choices
_FAMILIES = {
    "mm-power": (("m",), lambda a: constructions.mm_power(a.p, a.m, a.s, a.a, a.e)),
    "mm-qpoly": (("m", "coeffs"),
                 lambda a: constructions.mm_qpoly(a.p, a.m, a.s, a.a, _ints(a.coeffs))),
    "quad-trace": (("n",), lambda a: constructions.quad_trace(a.p, a.n, a.s, a.a)),
    "diag-quad": (("m", "coeffs"),
                  lambda a: constructions.diag_quad(a.p, a.s, a.m, _ints(a.coeffs))),
    "spread": (("m",), lambda a: constructions.spread_bent(
        a.p, a.m, a.s, _ints(a.labels) if a.labels else None, a.gamma0)),
    "branched-quad-mm": (("n", "m"), lambda a: constructions.branched_quad_mm(
        a.p, a.n, a.m, a.s, a.alpha1, a.alpha2, a.alpha3, a.beta, a.gamma,
        _ints(a.coeffs) if a.coeffs else (1,))),
}


def _cmd_construct(args) -> tuple[dict, int]:
    return _bundle_dict(_build(_FAMILIES[args.family], args)), 0


def _ints(csv: str):
    try:
        return tuple(int(v) for v in csv.split(","))
    except (AttributeError, ValueError):
        raise UsageError(f"expected a comma-separated integer list, got {csv!r}")


def _p_ary(args) -> VectorialFunction:
    F = _load_function(args.file)
    if F.s != 1:
        raise UsageError(f"{args.command} operates on p-ary (s = 1) functions")
    return F


def _cmd_walsh(args) -> tuple[dict, int]:
    f = _p_ary(args)
    return {"p": f.p, "spectrum": spectral.walsh_full(f).to_json()}, 0


def _cmd_classify(args) -> tuple[dict, int]:
    cl = spectral.classify_bent(_p_ary(args))
    return {
        "is_bent": cl.is_bent,
        "weakly_regular": cl.weakly_regular,
        "regular": cl.regular,
        "epsilon": cl.epsilon,
        "dual_table": cl.dual.table if cl.dual is not None else None,
    }, 0


def _claim(bundle: dict, key: str) -> dict | None:
    """The claim under key as {c: value}, or None when it is absent, null
    or {}.  Keys must be canonical decimal strings, str(int(c)) == c, and
    values integers by the integer rule."""
    claim = bundle.get(key)
    if claim is None or claim == {}:
        return None
    if not isinstance(claim, dict):
        raise UsageError(f"{key} must be a JSON object, got {type(claim).__name__}")
    try:
        read = {int(c): _check_integer(v, f"{key}[{c!r}]") for c, v in claim.items()}
    except ValueError as exc:
        raise UsageError(f"malformed {key} claim: {exc}")
    if list(map(str, read)) != list(claim):
        raise UsageError(f"{key} keys must be canonical decimal integers")
    return read


def _cmd_certify(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    F = _function(bundle["function"])
    if "dual" not in bundle:
        raise UsageError("certify needs a construct bundle with 'function' and 'dual'")
    Fstar = _function(bundle["dual"])
    sigma_claim, eps_claim = _claim(bundle, "sigma"), _claim(bundle, "epsilons")
    cert = spectral.dual_bent_certificate(F, Fstar)
    if cert is None:
        return {"certified": False}, VERIFY_ERROR
    sigma_ok = None if sigma_claim is None else sigma_claim == cert.sigma
    eps_ok = None if eps_claim is None else eps_claim == cert.epsilons
    out = {
        "certified": True,
        **_claims(cert.sigma, cert.epsilons),
        "sigma_matches_claim": sigma_ok,
        "epsilon_matches_claim": eps_ok,
    }
    return out, 0 if sigma_ok in (True, None) and eps_ok in (True, None) else VERIFY_ERROR


# --set -> its preimage, which a coset takes (l, beta) for; the --set choices
_SETS = {
    "zero": pds.zero_preimage,
    "squares": pds.squares_preimage,
    "nonsquares": pds.nonsquares_preimage,
    "coset": pds.coset_preimage,
}


def _extract_set(F: VectorialFunction, args) -> pds.PreimageSet:
    coset = ()
    if args.set == "coset":
        if args.l is None or args.beta is None:
            raise UsageError("--set coset needs --l and --beta")
        coset = (args.l, args.beta)
    return _SETS[args.set](F, *coset, not args.include_zero)


def _cmd_pds_extract(args) -> tuple[dict, int]:
    F = _load_function(args.file)
    D = _extract_set(F, args)
    return {
        "group": F.domain.to_list(),
        "descriptor": D.descriptor,
        "members": D.ranks.tolist(),
        "size": len(D),
    }, 0


# --theorem -> (options it needs, parameter call); the --theorem choices
_THEOREMS = {
    "subset": (("n", "size_a"), lambda a: pds.params_subset(
        a.p, a.n, a.s, a.size_a, a.contains_zero, a.eps)),
    "coset-union": (("ntotal", "hsize"), lambda a: pds.params_coset_union(
        a.p, a.ntotal, a.s, a.hsize, a.m1, a.m0, a.eps)),
}


def _cmd_pds_params(args) -> tuple[dict, int]:
    return _build(_THEOREMS[args.theorem], args).to_dict(), 0


def _cmd_pds_verify(args) -> tuple[dict, int]:
    F = _load_function(args.file)
    D = _extract_set(F, args)
    expect = None
    if args.expect:
        vals = _ints(args.expect)
        if len(vals) != 4:
            raise UsageError("--expect needs v,k,lambda,mu")
        expect = PdsParams(*vals)
    method = args.method
    report = {"method": method, "descriptor": D.descriptor}
    verified = False
    if method in ("bruteforce", "both"):
        observed = pds.verify_pds_bruteforce(F.domain, D)
        if observed is None:
            report.update({"verified": False, "reason": "difference counts not two-valued"})
            return report, VERIFY_ERROR
        report.update(observed.to_dict())
        verified = expect is None or pds.params_match(expect, observed)
        if method == "both":
            candidate = expect if expect is not None else observed
            verified = verified and pds.verify_pds_characters(F.domain, D, candidate)
    else:  # characters only
        if expect is None:
            raise UsageError("--method characters needs --expect v,k,lambda,mu")
        report.update(expect.to_dict())
        verified = pds.verify_pds_characters(F.domain, D, expect)
    report["verified"] = bool(verified)
    return report, 0 if verified else VERIFY_ERROR


def _cmd_gaussian_period(args) -> tuple[dict, int]:
    brute = pds.gaussian_period(args.p, args.s, args.t, args.a)
    info = pds.semiprimitive_check(args.p, args.s, args.t)
    closed = None
    match = None
    if info is not None:
        closed = pds.gaussian_period_semiprimitive(args.p, args.s, args.t, args.a)
        match = closed == brute
    out = {
        "p": args.p,
        "s": args.s,
        "t": args.t,
        "a": args.a,
        "bruteforce": brute.to_dict(),
        "closed_form": closed.to_dict() if closed is not None else None,
        "semiprimitive": info is not None,
        "match": match,
    }
    return out, 0 if match in (True, None) else VERIFY_ERROR


# reference parameter quadruples, kept verbatim as fixtures; the groups
# (up to 5^16 elements) are far beyond enumeration, so these are the
# formula-side regression gate
REFERENCE_PARAM_SETS = [
    # (label, (p, n_total, s, h_size, m1, m0, eps), quadruple)
    ("p5-n16-s2-h12-single", (5, 16, 2, 12, 1, 0, -1),
     (152587890625, 73242375000, 35156421875, 35156437500)),
    ("p5-n16-s2-h12-union", (5, 16, 2, 12, 1, 1, -1),
     (152587890625, 79345515624, 41259578123, 41259562500)),
    ("p7-n8-s2-h16-single", (7, 8, 2, 16, 1, 0, 1),
     (5764801, 1881600, 614705, 613872)),
    ("p7-n8-s2-h16-union", (7, 8, 2, 16, 1, 1, 1),
     (5764801, 2001600, 695455, 694722)),
    ("p5-n16-s2-h8-single", (5, 16, 2, 8, 1, 0, -1),
     (152587890625, 48828250000, 15624984375, 15625125000)),
    ("p5-n16-s2-h8-union", (5, 16, 2, 8, 2, 0, -1),
     (152587890625, 97656500000, 62500359375, 62500250000)),
    ("p3-n16-s4-h16-single", (3, 16, 4, 16, 1, 0, 1),
     (43046721, 8501760, 1682289, 1678320)),
    ("p3-n16-s4-h16-union", (3, 16, 4, 16, 2, 1, 1),
     (43046721, 17541440, 7148815, 7147602)),
]


def _cmd_reproduce_examples(args) -> tuple[dict, int]:
    rows = []
    all_ok = True
    for label, (p, nt, s, h, m1, m0, eps), expected in REFERENCE_PARAM_SETS:
        got = pds.params_coset_union(p, nt, s, h, m1, m0, eps).as_tuple()
        ok = got == expected
        all_ok &= ok
        rows.append(
            {"name": label, "computed": list(got), "expected": list(expected), "match": ok}
        )
    return {"results": rows, "all_match": all_ok}, 0 if all_ok else VERIFY_ERROR


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError (one JSON record, exit 2)
    instead of printing to stderr and exiting; -h still prints help."""

    def error(self, message):
        raise UsageError(message)


# subcommand -> (handler, help, whether it reads a --file), in help order
_COMMANDS = {
    "construct": (_cmd_construct, "emit a construction bundle as JSON", False),
    "walsh": (_cmd_walsh, "full Walsh spectrum of a p-ary function", True),
    "classify": (_cmd_classify, "bentness / regularity / dual", True),
    "certify": (_cmd_certify, "check a bundle's dual and sigma claims", True),
    "pds-extract": (_cmd_pds_extract, "emit a preimage set", True),
    "pds-verify": (_cmd_pds_verify, "verify a preimage set as a PDS", True),
    "pds-params": (_cmd_pds_params, "closed-form (v,k,lambda,mu)", False),
    "gaussian-period": (_cmd_gaussian_period, "brute-force and closed-form periods", False),
    "reproduce-examples": (_cmd_reproduce_examples,
                           "recompute the reference parameter quadruples", False),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """--file comes first on each subcommand that reads one; argparse lists
    missing options, and help, in the order they are declared.  Built once
    per process, since parse_args leaves a parser as it was: building all
    nine subparsers took about 2.5 ms a call."""
    ap = _Parser(prog="bentpds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, (func, text, reads_file) in _COMMANDS.items():
        cmd[name] = sub.add_parser(name, help=text)
        cmd[name].set_defaults(func=func)
        if reads_file:
            cmd[name].add_argument("--file", required=True)

    c = cmd["construct"]
    c.add_argument("--family", required=True, choices=_FAMILIES)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--s", type=int, required=True)
    for name in ("--a", "--e", "--alpha1", "--alpha2", "--alpha3", "--beta", "--gamma"):
        c.add_argument(name, type=int, default=1)
    c.add_argument("--gamma0", type=int, default=0)
    c.add_argument("--coeffs", default=None, help="comma-separated field ranks")
    c.add_argument("--labels", default=None, help="comma-separated spread labels")

    for q in (cmd["pds-extract"], cmd["pds-verify"]):
        q.add_argument("--set", required=True, choices=_SETS)
        q.add_argument("--l", type=int, default=None)
        q.add_argument("--beta", type=int, default=None)
        q.add_argument("--include-zero", action="store_true")
    pp = cmd["pds-params"]
    pp.add_argument("--theorem", required=True, choices=_THEOREMS)
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--s", type=int, required=True)
    pp.add_argument("--n", type=int, default=None)
    pp.add_argument("--ntotal", type=int, default=None)
    pp.add_argument("--size-a", type=int, default=None)
    pp.add_argument("--contains-zero", action="store_true")
    pp.add_argument("--hsize", type=int, default=None)
    pp.add_argument("--m1", type=int, default=1)
    pp.add_argument("--m0", type=int, default=0)
    pp.add_argument("--eps", type=int, required=True, choices=[1, -1])

    gp = cmd["gaussian-period"]
    for name in ("--p", "--s", "--t", "--a"):
        gp.add_argument(name, type=int, required=True)

    for q in cmd.values():
        q.add_argument("--out", default=None)
    pv = cmd["pds-verify"]  # its own options follow --out in its help
    pv.add_argument("--method", default="both", choices=["both", "bruteforce", "characters"])
    pv.add_argument("--expect", default=None, help="v,k,lambda,mu")
    return ap


def _table_json(table: np.ndarray) -> str:
    """json.dumps(table.tolist(), separators=(",", ":")) for a nonempty
    table of non-negative integers.  Below 10 the digits are written into
    every other byte of a row of commas; otherwise each value is gathered
    from a NUL-padded byte row "v," per value."""
    top = int(table.max())
    if top < 10:
        text = np.full(2 * table.size + 1, _COMMA, np.uint8)
        text[0], text[-1] = ord("["), ord("]")
        np.add(table, 48, out=text[1::2], casting="unsafe")  # no int64 temporary
        return str(text.data, "ascii")
    rows = np.array([f"{v}," for v in range(top + 1)], dtype=bytes)
    cells = spectral._apply(rows.view(np.uint8).reshape(rows.size, -1), table)
    return "[" + cells[cells != 0].tobytes()[:-1].decode("ascii") + "]"


def _json_line(record) -> str:
    """The record as one compact JSON line with sorted keys; numpy tables in
    it are rendered by _table_json."""
    tables = []

    def hold(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return f"\0table{len(tables) - 1}"

    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=hold)
    for i, table in enumerate(tables):
        text = text.replace(json.dumps(f"\0table{i}"), _table_json(table), 1)
    return text + "\n"


def main(argv=None) -> int:
    """Run one subcommand.  Its record, or the error record, is written to
    stdout as one JSON line and, with --out, to that file as well."""
    out_path = None
    try:
        args = build_parser().parse_args(argv)
        out_path = args.out
        record, code = args.func(args)
        text = _json_line(record)  # ValueError past Python's int-to-str digit limit
    except (UsageError, ValueError) as exc:
        text, code = _json_line({"error": "usage", "message": str(exc)}), USAGE_ERROR
    except BentError as exc:
        text = _json_line({"error": type(exc).__name__, "message": str(exc)})
        code = VERIFY_ERROR
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            code = USAGE_ERROR
            text = _json_line({"error": "usage", "message": f"cannot write {out_path}: {exc}"})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
