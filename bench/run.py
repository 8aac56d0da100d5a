"""bentpds benchmark.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each pass of the workload runs in
a fresh single-threaded Python process (bench/worker.py), so the library's
caches start cold every time, as they do for a CLI user.  Passes repeat
while another one still fits in S seconds; set-up is sampled in further
fresh processes until there are SETUP_SAMPLES of it.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced and
one traced pass, then the probes, and reports the per-layer metrics with the
tracing overhead.  The report goes to stdout; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record, spans
included, is written once at the end to .bench_out/.

--tiny swaps every workload for small instances of the same shape, and
--corrupt-sigma damages the sigma claim of the pipeline's bundle; both
serve bench/test_smoke.py.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("pipeline_3p12", "desk_p3", "field_oddp")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_p50_ms": "ms",
    "verify_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
_LAYER_TIMES = (
    "field.build_s", "field.trace_table_s", "space.build_s", "constructions.build_s",
    "spectral.certify_s", "spectral.transform_s", "spectral.classify_match_s",
    "spectral.first_transform_extra_s", "spectral.dual_match_s",
    "pds.pair_count_s", "pds.char_verify_s", "pds.preimage_s", "pds.theorem_select_s",
    "pds.preimage_sizes_s", "cli.construct_s", "cli.certify_s", "cli.pds_params_s",
    "cli.pds_verify_s", "cli.json_io_s", "trace.overhead_s",
)
_LAYER_COUNTS = (
    "field.elements", "constructions.table_entries", "spectral.transforms",
    "spectral.components", "spectral.digit_pass_points", "pds.pairs",
    "pds.candidate_points", "pds.verifications", "pds.rejections",
    "pds.verifier_agreement", "pds.verifier_agreement_base", "cli.bundle_bytes",
)
PER_LAYER = {
    **{name: "s" for name in _LAYER_TIMES},
    **{name: "count" for name in _LAYER_COUNTS},
    "cli.bundle_bytes": "bytes",
    "trace.coverage": "ratio",
}
# metrics read straight off the summed span durations of the traced pass
_FROM_SPANS = (
    "field.build", "field.trace_table", "constructions.build", "spectral.certify",
    "pds.pair_count", "pds.char_verify", "pds.preimage", "pds.theorem_select",
    "pds.preimage_sizes", "cli.construct", "cli.certify", "cli.pds_params",
    "cli.pds_verify",
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BENT_SIZE_CAP", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


class Runner:
    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.t_start = time.perf_counter()
        self.n = 0
        self.env = _worker_env()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def worker(self, mode: str, trace: int = 0) -> dict:
        self.n += 1
        out = self.run_dir / f"worker{self.n}.json"
        a = self.args
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--mode", mode, "--trace", str(trace),
            "--run-id", f"{a.workload}:{a.seed}:{self.n}", "--out", str(out),
        ]
        if a.tiny:
            cmd.append("--tiny")
        if a.corrupt_sigma:
            cmd.append("--corrupt-sigma")
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker passed the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(xs, q: int) -> float:
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def highest_supported_percentile(xs):
    """The highest whole percentile with at least ten samples above it."""
    for q in range(99, 0, -1):
        if len(xs) > 1:
            v = percentile(xs, q)
            if sum(x > v for x in xs) >= 10:
                return q, v
    return None


def describe(xs, unit: str, scale: float = 1.0) -> str:
    top = highest_supported_percentile(xs)
    tail = (
        f"p{top[0]} {top[1] * scale:.4g} {unit}" if top
        else "no percentile has 10 samples above it"
    )
    return f"median of n={len(xs)}; {tail}"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(r: Runner):
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(r.worker("pass"))
        spent = time.perf_counter() - t0
        per_pass = spent / len(passes)
        if spent + per_pass > r.args.seconds or r.elapsed() + 2 * per_pass > RUN_LIMIT_S:
            break
    setups = [w["setup_s"] for w in passes]
    while len(setups) < SETUP_SAMPLES and r.elapsed() + 2 * max(setups) < RUN_LIMIT_S:
        setups.append(r.worker("setup")["setup_s"])
    verify = [v for w in passes for v in w["verify_s"]] or [0.0]
    solve = [w["solve_s"] for w in passes]
    rss = [w["peak_rss_mb"] for w in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solve),
        "verify_p50_ms": 1000 * percentile(verify, 50),
        "verify_p95_ms": 1000 * percentile(verify, 95),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": describe(setups, "s"),
        "solve_s": describe(solve, "s"),
        "verify_p50_ms": describe(verify, "ms", 1000),
        "verify_p95_ms": describe(verify, "ms", 1000),
        "peak_rss_mb": f"median of n={len(rss)}",
    }
    return passes, metrics, notes, {"setup_samples": setups}


def traced_run(r: Runner):
    plain = r.worker("pass", trace=0)
    traced = r.worker("pass", trace=1)
    cold = r.worker("cold")
    tot, probes, counts = traced["span_totals"], traced["probes"], traced["counts"]
    m = {name: 0.0 for name in _LAYER_TIMES}
    for name in _FROM_SPANS:
        m[name + "_s"] = tot.get(name, 0.0)
    if r.args.workload == "pipeline_3p12":
        # the library calls happen inside the CLI calls: the pass's CLI spans
        # minus the JSON side, timed by a probe on the same bundle, give them
        io = traced["cli_io"]
        m["cli.json_io_s"] = io["construct"] + io["certify"] + io["pds_verify"]
        m["constructions.build_s"] = m["cli.construct_s"] - io["construct"]
        m["spectral.certify_s"] = m["cli.certify_s"] - io["certify"]
        m["pds.preimage_s"] = io["preimage"]
        m["pds.char_verify_s"] = m["cli.pds_verify_s"] - io["pds_verify"] - io["preimage"]
    m["space.build_s"] = probes["space.build_s"]
    m["spectral.transform_s"] = probes["transform_s"]
    m["spectral.classify_match_s"] = probes["classify_s"] - probes["transform_s"]
    m["spectral.first_transform_extra_s"] = cold["first_transform_extra_s"]
    m["spectral.dual_match_s"] = (
        m["spectral.certify_s"] - probes["classify_s"] - probes["extract_s"]
        - cold["first_transform_extra_s"]
    )
    m["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
    for name in _LAYER_COUNTS:
        m[name] = counts.get(name, 0)
    m["trace.coverage"] = traced["coverage"]
    notes = {
        "trace.overhead_s": f"traced solve_s {traced['solve_s']:.4f} s minus untraced "
                            f"{plain['solve_s']:.4f} s",
        "trace.coverage": "share of the traced solve_s inside layer spans "
                          + ("(ok, >= 0.90)" if traced["coverage"] >= 0.9 else "(LOW, < 0.90)"),
        "pds.verifier_agreement": f"of {counts.get('pds.verifier_agreement_base', 0)} "
                                  "sets checked by both verifiers",
    }
    for name in _LAYER_COUNTS:
        notes.setdefault(name, "computed from the inputs")
    return [plain, traced], m, notes, {"probes": probes, "cold": cold}


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "n/a"


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a (git unavailable)"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "n/a (not a git checkout)"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-sigma", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bentpds" / "__init__.py").is_file():
        print(f"bench: no bentpds sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.d"
    run_dir.mkdir(parents=True)
    runner = Runner(args, run_dir)
    try:
        if args.trace:
            workers, metrics, notes, extra = traced_run(runner)
            units = PER_LAYER
        else:
            workers, metrics, notes, extra = untraced_run(runner)
            units = END_TO_END
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["numpy"] = workers[0]["numpy"]
    env["loadavg_end"] = _loadavg()

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    counts = workers[-1]["counts"]
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"loop: closed, one client, one fresh process per pass; passes={len(workers)}; "
          "wait_s=0 by construction (one process, nothing queues)")
    print(f"ops: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted if attempted else 0:g} ({failed}/{attempted}); "
          f"per pass: verifications={counts.get('pds.verifications', 0)} "
          f"pairs={counts.get('pds.pairs', 0)}")
    for w in workers:
        for failure in w["failures"]:
            print(f"FAIL {failure}")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit:6s} {note}")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "result": result, "notes": notes,
                    "extra": extra, "workers": workers}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
