"""The benchmark's workloads: seeded instance recipes, the timed pass of each
workload, and the probes a traced run makes after that pass.

Every workload is closed loop with one client: the next library or CLI call
starts only when the previous one has returned.  The seed picks coefficients,
sampled subsets, coset representatives and perturbations; it never picks
families, field sizes or group sizes, so the work per pass does not depend
on it.  Every operation has an expected result, and a miss is recorded in the
ledger rather than skipped.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from bentpds import cli, constructions, pds, spectral
from bentpds.field import canonical_field
from bentpds.space import Space

from spans import Recorder

# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe:
    family: str     # name of the constructor in bentpds.constructions
    args: dict

    def build(self) -> constructions.ConstructedPair:
        return getattr(constructions, self.family)(**self.args)

    @property
    def domain_size(self) -> int:
        a = self.args
        if self.family == "quad_trace":
            exp = a["n"]
        elif self.family == "diag_quad":
            exp = a["s"] * a["m"]
        else:  # two GF(p^m) blocks, after a GF(p^n) block in the branched family
            exp = 2 * a["m"] + a.get("n", 0)
        return a["p"] ** exp


def _rng(workload: str, seed: int, tag="") -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def _square(rng, F) -> int:
    """A uniformly random nonzero square of F."""
    return F.pow(F.primitive_element, 2 * rng.randrange((F.size - 1) // 2))


def _pipeline_recipes(seed: int, tiny: bool) -> list[Recipe]:
    rng = _rng("pipeline_3p12", seed)
    p, m, s = 3, (2 if tiny else 6), 2
    q = p ** m
    e = rng.choice([e for e in range(1, q - 1) if math.gcd(e, q - 1) == 1])
    return [Recipe("mm_power", dict(p=p, m=m, s=s, a=rng.randrange(1, q), e=e))]


def _desk_recipes(seed: int, tiny: bool) -> list[Recipe]:
    """The 20 instances of acceptance criterion 2, with seeded coefficients
    kept in the quadratic-character class of the curated ones, so the sigma
    and sign structure, and therefore the theorem selection, is fixed."""
    rng = _rng("desk_p3", seed)
    F3, F9, F81 = (canonical_field(3, m) for m in (1, 2, 4))
    nz = lambda F: rng.randrange(1, F.size)
    sq = lambda F, a=1: F.mul(a, _square(rng, F))

    def labels(m, s):
        lab = [r % 3 ** s for r in range(3 ** m)]
        rng.shuffle(lab)
        return lab

    ns9 = min(F9.nonsquares())
    recipes = [
        Recipe("mm_power", dict(p=3, m=1, s=1, a=nz(F3), e=1)),
        Recipe("mm_power", dict(p=3, m=2, s=2, a=nz(F9), e=3)),
        Recipe("mm_power", dict(p=3, m=4, s=2, a=nz(F81), e=7)),
        Recipe("mm_qpoly", dict(p=3, m=2, s=1, a=nz(F9), l_coeffs=(0, 1))),
        Recipe("mm_qpoly", dict(p=3, m=2, s=2, a=nz(F9), l_coeffs=(1,))),
        Recipe("mm_qpoly", dict(p=3, m=4, s=2, a=nz(F81), l_coeffs=(0, 1))),
        Recipe("quad_trace", dict(p=3, n=2, s=1, a=sq(F9))),
        Recipe("quad_trace", dict(p=3, n=2, s=1, a=sq(F9, ns9))),
        Recipe("quad_trace", dict(p=3, n=4, s=2, a=sq(F81))),
        Recipe("quad_trace", dict(p=3, n=8, s=4, a=sq(canonical_field(3, 8)))),
        Recipe("diag_quad", dict(p=3, s=1, m=2, coeffs=(1, 1))),
        Recipe("diag_quad", dict(p=3, s=2, m=2, coeffs=(sq(F9), sq(F9, 4)))),
        Recipe("diag_quad", dict(p=3, s=1, m=4, coeffs=(1, 2, 1, 1))),
        Recipe("diag_quad", dict(p=3, s=2, m=4, coeffs=tuple(sq(F9) for _ in range(4)))),
        Recipe("spread_bent", dict(p=3, m=1, s=1, labeling=labels(1, 1))),
        Recipe("spread_bent", dict(p=3, m=2, s=2, labeling=labels(2, 2))),
        Recipe("spread_bent", dict(p=3, m=4, s=2, labeling=labels(4, 2))),
        Recipe("branched_quad_mm", dict(p=3, n=2, m=1, s=1, alpha1=sq(F9), alpha2=sq(F9),
                                        alpha3=sq(F9), beta=nz(F3), gamma=nz(F3))),
        Recipe("branched_quad_mm", dict(p=3, n=2, m=2, s=1, alpha1=sq(F9), alpha2=sq(F9, 2),
                                        alpha3=sq(F9, 2), beta=nz(F9), gamma=nz(F9))),
        Recipe("branched_quad_mm", dict(p=3, n=4, m=2, s=2, alpha1=sq(F81), alpha2=sq(F81),
                                        alpha3=sq(F81), beta=nz(F9), gamma=nz(F9))),
    ]
    if tiny:
        recipes = [r for r in recipes if r.domain_size <= 3 ** 4]
    return recipes


def _field_recipes(seed: int, tiny: bool) -> list[Recipe]:
    """quad_trace at 3^10, mm_power at 7^6 with identity sigma, quad_trace at
    5^6.  The quad_trace coefficients are squares, which fixes each sign and
    so |D_0|; e = 5 mod 6 makes sigma(c) = c^{-1/e} the identity on GF(7)."""
    rng = _rng("field_oddp", seed)
    n3, m7, n5 = (4, 1, 2) if tiny else (10, 3, 6)
    q7 = 7 ** m7
    e = rng.choice([e for e in range(5, q7 - 1, 6) if math.gcd(e, q7 - 1) == 1])
    return [
        Recipe("quad_trace", dict(p=3, n=n3, s=1, a=_square(rng, canonical_field(3, n3)))),
        Recipe("mm_power", dict(p=7, m=m7, s=1, a=rng.randrange(1, q7), e=e)),
        Recipe("quad_trace", dict(p=5, n=n5, s=1, a=_square(rng, canonical_field(5, n5)))),
    ]


# Every field each workload's instances name, with the trace degrees they
# read: the constructions' own Tr_s, Tr_1 for the inner products of extension
# factors, and Tr_1 on the codomain for the components.  Set-up builds these;
# they depend on the workload, never on the seed.
FIELDS = {
    "pipeline_3p12": {(3, 6): (1, 2), (3, 2): (1,)},
    "desk_p3": {(3, 1): (1,), (3, 2): (1, 2), (3, 4): (1, 2), (3, 8): (1, 4)},
    "field_oddp": {(3, 10): (1,), (3, 1): (1,), (7, 3): (1,), (7, 1): (1,),
                   (5, 6): (1,), (5, 1): (1,)},
}
TINY_FIELDS = {
    "pipeline_3p12": {(3, 2): (1, 2)},
    "desk_p3": {(3, 1): (1,), (3, 2): (1, 2), (3, 4): (1, 2)},
    "field_oddp": {(3, 4): (1,), (3, 1): (1,), (7, 1): (1,), (5, 2): (1,), (5, 1): (1,)},
}


RECIPES = {
    "pipeline_3p12": _pipeline_recipes,
    "desk_p3": _desk_recipes,
    "field_oddp": _field_recipes,
}


# ---------------------------------------------------------------------------
# the ledger: attempted operations, failures, verification latencies
# ---------------------------------------------------------------------------

@dataclass
class Context:
    workload: str
    seed: int
    rec: Recorder
    tmp: Path
    corrupt_sigma: bool = False
    attempted: int = 0
    failed: int = 0
    failures: list = dc_field(default_factory=list)
    verify_s: list = dc_field(default_factory=list)
    pairs: list = dc_field(default_factory=list)   # (recipe, pair, cert) for the probes

    def check(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")
        return problem is None

    def attempt(self, what: str, fn, *args):
        """Run one operation; fn returns (value, problem or None).  An
        exception is a failed operation, recorded with its traceback."""
        try:
            value, problem = fn(*args)
        except Exception:
            value, problem = None, traceback.format_exc(limit=4).strip().splitlines()[-1]
        self.check(what, problem)
        return value


def _count_transform(rec: Recorder, space_size: int, dim: int, k: int = 1) -> None:
    rec.count("spectral.transforms", k)
    rec.count("spectral.digit_pass_points", k * dim * space_size)


# ---------------------------------------------------------------------------
# shared library steps
# ---------------------------------------------------------------------------

def _construct(ctx: Context, recipe: Recipe):
    with ctx.rec.span("constructions.build"):
        pair = recipe.build()
    ctx.rec.count("constructions.table_entries", 2 * pair.function.domain.size)
    return pair, None


def _certify(ctx: Context, pair):
    F = pair.function
    with ctx.rec.span("spectral.certify"):
        cert = spectral.dual_bent_certificate(F, pair.dual)
    q = F.codomain.size
    ctx.rec.count("spectral.components", q - 1)
    _count_transform(ctx.rec, F.domain.size, F.domain.dim, q - 1)
    if cert is None:
        return None, "no certificate"
    if cert.sigma != pair.sigma:
        return cert, "sigma differs from the claim"
    if pair.epsilons is not None and cert.epsilons != pair.epsilons:
        return cert, "epsilons differ from the claim"
    return cert, None


def _constant_eps(cert) -> int | None:
    vals = set(cert.epsilons.values())
    return vals.pop() if len(vals) == 1 and None not in vals else None


def _verify(ctx: Context, space: Space, members, predicted, accept: bool):
    """Both verifiers on one set: the pair counter and the character
    criterion.  A positive must be accepted by both with the predicted
    quadruple; a negative rejected by both.  Disagreement is a failure."""
    rec = ctx.rec
    t0 = time.perf_counter()
    with rec.span("pds.pair_count"):
        observed = pds.verify_pds_bruteforce(space, members)
    with rec.span("pds.char_verify"):
        chars = pds.verify_pds_characters(space, members, predicted)
    ctx.verify_s.append(time.perf_counter() - t0)
    size = len(members)
    brute = observed is not None and pds.params_match(predicted, observed)
    rec.count("pds.verifications")
    rec.count("pds.pairs", size * size)
    rec.count("pds.candidate_points", 2 * size)
    rec.count("pds.verifier_agreement_base")
    rec.count("pds.verifier_agreement", int(brute == bool(chars)))
    if predicted.k == size and predicted.v == space.size and size:
        _count_transform(rec, space.size, space.dim)
    if not (brute or chars):
        rec.count("pds.rejections")
    if brute != bool(chars):
        return None, f"verifiers disagree (pair count {brute}, characters {chars})"
    if brute != accept:
        got = observed.as_tuple() if observed is not None else None
        return None, f"expected {'accept' if accept else 'reject'} of {predicted.as_tuple()}, counted {got}"
    return None, None


def _toggle_pair(space: Space, members, x: int) -> frozenset:
    """The set with the symmetric pair +-x added or removed."""
    pair = {x, space.negate(x)}
    return frozenset(members - pair if x in members else members | pair)


# ---------------------------------------------------------------------------
# desk_p3 and field_oddp: library calls
# ---------------------------------------------------------------------------

def _subset_cases(rng, q: int, s: int):
    if s == 1:
        return [set(c) for r in range(q + 1) for c in itertools.combinations(range(q), r)]
    x, y, z, w = rng.sample(range(1, q), 4)
    return [set(), {0}, {x}, {0, x}, {x, y, z}, {0, x, y, w}]


def _theorem_sets(ctx: Context, rng, pair, cert, eps):
    """Criterion 2's theorem selection: every theorem whose sigma predicate
    holds, with seeded subsets and coset representatives.  Yields
    (descriptor, preimage set, closed-form quadruple)."""
    rec = ctx.rec
    F = pair.function
    sub = F.codomain
    p, n, s, q = F.p, F.domain.dim, sub.m, sub.size
    w = sub.primitive_element
    ts = lambda: rec.span("pds.theorem_select")
    pre = lambda: rec.span("pds.preimage")

    def coset(l, i, n_cosets, h):
        # a random representative of the i-th coset w^i H_l
        return pds.coset_preimage(F, l, sub.pow(w, i + n_cosets * rng.randrange(h)))

    with ts():
        identity = pds.sigma_predicates(sub, cert.sigma, 2).is_identity
    if identity:
        for A in _subset_cases(rng, q, s):
            with ts():
                predicted = pds.params_subset(p, n, s, len(A), 0 in A, eps)
            with pre():
                D = pds.preimage(F, A)
            yield f"A={sorted(A)}", D, predicted

    for l in (l for l in range(1, q) if (q - 1) % l == 0):
        n_cosets = math.gcd(l, q - 1)
        h = (q - 1) // n_cosets
        with ts():
            if not pds.sigma_predicates(sub, cert.sigma, l).coset_stable:
                continue
            single = pds.params_coset_union(p, n, s, h, 1, 0, eps)
        for i in rng.sample(range(n_cosets), min(n_cosets, 3)):
            with pre():
                D = coset(l, i, n_cosets, h)
            yield f"coset l={l} i={i}", D, single
        m1 = min(n_cosets, 2)
        picks = rng.sample(range(n_cosets), m1)
        with pre():
            D = pds.zero_preimage(F)
            for i in picks:
                D = D.union(coset(l, i, n_cosets, h))
        with ts():
            predicted = pds.params_coset_union(p, n, s, h, m1, 1, eps)
        yield f"D_0 + cosets l={l} {picks}", D, predicted

    for t in range(2, q):
        with ts():
            info = pds.semiprimitive_check(p, s, t)
            if info is None:
                continue
            h = (q - 1) // t
            if not pds.sigma_predicates(sub, cert.sigma, t).coset_permuting:
                continue
            single = pds.params_coset_union(p, n, s, h, 1, 0, eps)
        for i in rng.sample(range(t), min(t, 3)):
            with pre():
                D = coset(t, i, t, h)
            yield f"semiprimitive t={t} i={i}", D, single
        m1 = min(t, 2)
        picks = rng.sample(range(t), m1)
        with pre():
            D = coset(t, picks[0], t, h)
            for i in picks[1:]:
                D = D.union(coset(t, i, t, h))
        with ts():
            predicted = pds.params_coset_union(p, n, s, h, m1, 0, eps)
        yield f"semiprimitive union t={t} {picks}", D, predicted


def _desk_pass(ctx: Context, recipes: list[Recipe]) -> None:
    for idx, recipe in enumerate(recipes):
        rng = _rng(ctx.workload, ctx.seed, idx)
        tag = f"{recipe.family}#{idx}"
        pair = ctx.attempt(f"{tag} construct", _construct, ctx, recipe)
        if pair is None:
            continue
        cert = ctx.attempt(f"{tag} certify", _certify, ctx, pair)
        if cert is None:
            continue
        ctx.pairs.append((recipe, pair, cert))
        eps = _constant_eps(cert)
        if not ctx.check(f"{tag} constant sign", None if eps is not None else "signs vary"):
            continue

        def sizes():
            with ctx.rec.span("pds.preimage_sizes"):
                got = pds.preimage_sizes(pair.function, cert)
            total = sum(got.values())
            return got, None if total == pair.function.domain.size else f"sizes sum to {total}"

        ctx.attempt(f"{tag} preimage_sizes", sizes)
        space = pair.function.domain
        selected = ctx.attempt(f"{tag} theorem selection", lambda: (
            list(_theorem_sets(ctx, rng, pair, cert, eps)), None))
        if not selected:
            continue
        for desc, D, predicted in selected:
            ctx.attempt(f"{tag} {desc}", _verify, ctx, space, D.members, predicted, True)
        # one negative per instance: the last selected set (so its size does
        # not depend on the seed) with a seeded pair +-x toggled
        _, D, predicted = selected[-1]
        negative = _toggle_pair(space, D.members, rng.randrange(1, space.size))
        ctx.attempt(f"{tag} negative", _verify, ctx, space, negative, predicted, False)


def _field_pass(ctx: Context, recipes: list[Recipe]) -> None:
    for idx, recipe in enumerate(recipes):
        tag = f"{recipe.family}#{idx}"
        pair = ctx.attempt(f"{tag} construct", _construct, ctx, recipe)
        if pair is None:
            continue
        cert = ctx.attempt(f"{tag} certify", _certify, ctx, pair)
        if cert is None:
            continue
        ctx.pairs.append((recipe, pair, cert))
        F = pair.function
        if recipe.family == "mm_power":
            with ctx.rec.span("pds.theorem_select"):
                identity = pds.sigma_predicates(F.codomain, cert.sigma, 2).is_identity
            ctx.check(f"{tag} sigma is the identity", None if identity else "it is not")
        eps = _constant_eps(cert)
        if not ctx.check(f"{tag} constant sign", None if eps is not None else "signs vary"):
            continue
        with ctx.rec.span("pds.theorem_select"):
            predicted = pds.params_subset(F.p, F.domain.dim, F.s, 1, True, eps)
        with ctx.rec.span("pds.preimage"):
            D = pds.zero_preimage(F)
        ctx.attempt(f"{tag} D_0", _verify, ctx, F.domain, D.members, predicted, True)


# ---------------------------------------------------------------------------
# pipeline_3p12: the CLI chain, in process
# ---------------------------------------------------------------------------

def _cli(ctx: Context, name: str, argv: list[str]):
    """One CLI call through bentpds.cli.main with stdout captured; returns
    (parsed record, problem, stdout text)."""
    buf = io.StringIO()
    with ctx.rec.span(name), contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    out = buf.getvalue()
    if out.count("\n") != 1 or not out.endswith("\n"):
        return None, f"expected one JSON line on stdout, got {out.count(chr(10))} lines", out
    record = json.loads(out)
    if code != 0:
        return record, f"exit code {code}: {out[:200]}", out
    return record, None, out


def _pipeline_coset(seed: int, sub, sigma: dict[int, int]):
    """The coset set for the pipeline: the least l >= 2 for which sigma is
    coset-stable (l = 2 for every mm-power sigma at s = 2, so |D| does not
    depend on the seed), and a seeded representative beta."""
    rng = _rng("pipeline_3p12", seed, "coset")
    q = sub.size
    l = next(
        l for l in range(2, q) if (q - 1) % l == 0
        and pds.sigma_predicates(sub, sigma, l).coset_stable
    )
    return l, rng.randrange(1, q), (q - 1) // math.gcd(l, q - 1)


def _pipeline_pass(ctx: Context, recipes: list[Recipe]) -> None:
    rec = ctx.rec
    (recipe,) = recipes
    a = recipe.args
    p, m, s = a["p"], a["m"], a["s"]
    n = 2 * m
    sub = canonical_field(p, s)
    bundle = ctx.tmp / "bundle.json"
    base = ["--p", str(p), "--s", str(s)]

    def construct():
        argv = ["construct", "--family", "mm-power", "--m", str(m), *base,
                "--a", str(a["a"]), "--e", str(a["e"]), "--out", str(bundle)]
        record, problem, out = _cli(ctx, "cli.construct", argv)
        if problem is None and bundle.read_text() != out:
            problem = "bundle file differs from stdout"
        return record, problem

    record = ctx.attempt("construct", construct)
    if record is None:
        return
    rec.count("constructions.table_entries", 2 * p ** n)
    rec.count("cli.bundle_bytes", bundle.stat().st_size)
    table = np.asarray(record["function"]["table"], dtype=np.int64)
    counts = np.bincount(table, minlength=sub.size)
    if ctx.corrupt_sigma:
        # self-check: a wrong sigma claim must fail certify, and only certify
        record["sigma"]["1"] = record["sigma"]["1"] % (sub.size - 1) + 1
        bundle.write_text(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    def certify():
        out, problem, _ = _cli(ctx, "cli.certify", ["certify", "--file", str(bundle)])
        if problem is None and not (
            out["certified"] and out["sigma_matches_claim"] and out["epsilon_matches_claim"]
        ):
            problem = f"certificate does not match the claims: {out}"
        return out, problem

    cert = ctx.attempt("certify", certify)
    rec.count("spectral.components", sub.size - 1)
    _count_transform(rec, p ** n, n, sub.size - 1)
    if cert is None or not cert.get("certified"):
        return
    sigma = {int(c): d for c, d in cert["sigma"].items()}
    eps_vals = set(cert["epsilons"].values())
    if not ctx.check("constant sign", None if len(eps_vals) == 1 else "signs vary"):
        return
    eps = eps_vals.pop()

    def params(argv, closed, k_direct):
        out, problem, _ = _cli(ctx, "cli.pds_params", ["pds-params", *argv])
        if problem is None:
            got = pds.PdsParams(out["v"], out["k"], out["lambda"], out["mu"])
            if not pds.params_match(closed, got) or got.k != k_direct:
                problem = f"pds-params gave {got.as_tuple()}, closed form {closed.as_tuple()}, |D| = {k_direct}"
        return (closed if problem is None else None), problem

    def verify(argv, quad):
        expect = ",".join(str(v) for v in quad.as_tuple())
        t0 = time.perf_counter()
        out, problem, _ = _cli(ctx, "cli.pds_verify", [
            "pds-verify", "--file", str(bundle), *argv,
            "--method", "characters", "--expect", expect,
        ])
        ctx.verify_s.append(time.perf_counter() - t0)
        rec.count("pds.verifications")
        rec.count("pds.candidate_points", quad.k)
        _count_transform(rec, p ** n, n)
        if problem is None and out.get("verified") is not True:
            problem = f"not verified: {out}"
        return out, problem

    with rec.span("pds.theorem_select"):
        closed0 = pds.params_subset(p, n, s, 1, True, eps)
    quad0 = ctx.attempt("pds-params D_0", params, [
        "--theorem", "subset", "--n", str(n), *base, "--size-a", "1", "--contains-zero",
        "--eps", str(eps)], closed0, int(counts[0]) - 1)
    if quad0 is not None:
        ctx.attempt("pds-verify D_0", verify, ["--set", "zero"], quad0)

    with rec.span("pds.theorem_select"):
        l, beta, h = _pipeline_coset(ctx.seed, sub, sigma)
        closed1 = pds.params_coset_union(p, n, s, h, 1, 0, eps)
        members = sub.subgroup_coset(l, beta).members
    k1 = int(sum(counts[c] for c in members))
    quad1 = ctx.attempt("pds-params coset", params, [
        "--theorem", "coset-union", "--ntotal", str(n), *base, "--hsize", str(h),
        "--m1", "1", "--m0", "0", "--eps", str(eps)], closed1, k1)
    if quad1 is not None:
        ctx.attempt(f"pds-verify coset l={l} beta={beta}", verify,
                    ["--set", "coset", "--l", str(l), "--beta", str(beta)], quad1)


PASSES = {
    "pipeline_3p12": _pipeline_pass,
    "desk_p3": _desk_pass,
    "field_oddp": _field_pass,
}


# ---------------------------------------------------------------------------
# probes: calls made after the timed pass of a traced run
# ---------------------------------------------------------------------------

def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def layer_probes(pairs) -> dict[str, float]:
    """Warm per-component timings on every certified instance: Space build,
    component extraction (F and Fstar), walsh_full, classify_bent."""
    out = dict.fromkeys(("space.build_s", "extract_s", "transform_s", "classify_s"), 0.0)
    for _, pair, _ in pairs:
        F, Fstar = pair.function, pair.dual
        out["space.build_s"] += _timed(Space, F.domain.factors)[0]
        for c in range(1, F.codomain.size):
            dt_f, comp = _timed(spectral.component, F, c)
            dt_star, _ = _timed(spectral.component, Fstar, c)
            out["extract_s"] += dt_f + dt_star
            out["transform_s"] += _timed(spectral.walsh_full, comp)[0]
            out["classify_s"] += _timed(spectral.classify_bent, comp)[0]
    return out


def cold_transform_probe(recipes: list[Recipe]) -> float:
    """In a fresh process: for each instance in pass order, the first
    walsh_full on component 1 minus a repeat of it.  Instances sharing a
    domain pay the first-transform cost once, as in the pass."""
    pairs = [r.build() for r in recipes]
    extra = 0.0
    for pair in pairs:
        comp = spectral.component(pair.function, 1)
        cold, _ = _timed(spectral.walsh_full, comp)
        warm, _ = _timed(spectral.walsh_full, comp)
        extra += cold - warm
    return extra


def pipeline_io_probe(ctx: Context, pair) -> dict[str, float]:
    """The JSON side of the pipeline's CLI calls, timed on the pass's own
    bundle through the public calls the CLI makes: construct turns both
    tables into lists and writes the bundle to stdout and to --out; certify
    reads it back with both tables as arrays; each pds-verify reads it back
    with the function table.  Also the two preimages pds-verify extracts.
    The pass's CLI spans minus these give the library side."""
    bundle = ctx.tmp / "bundle.json"
    F = pair.function
    d = json.loads(bundle.read_text())

    def write():
        d["function"], d["dual"] = F.to_dict(), pair.dual.to_dict()
        json.dumps(d, sort_keys=True, separators=(",", ":"))
        with open(ctx.tmp / "probe.json", "w") as fh:
            json.dump(d, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    def read(*keys):
        with open(bundle) as fh:
            loaded = json.load(fh)
        for key in keys:
            spectral.VectorialFunction.from_dict(loaded[key])

    l, beta, _ = _pipeline_coset(ctx.seed, F.codomain, pair.sigma)
    coset = F.codomain.subgroup_coset(l, beta).members
    return {
        "construct": _timed(write)[0],
        "certify": _timed(read, "function", "dual")[0],
        "pds_verify": _timed(read, "function")[0] + _timed(read, "function")[0],
        "preimage": _timed(pds.preimage, F, {0}, True, "D_0")[0]
                    + _timed(pds.preimage, F, coset)[0],
    }
