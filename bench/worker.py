"""One fresh benchmark process: set-up, then one of
  pass    the workload's timed pass (and, when traced, its probes);
  setup   set-up only, one more set-up sample;
  cold    the first-transform probe.
The record is written as JSON to --out.  run.py starts these; it pins the
thread counts and PYTHONPATH before it does.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder  # noqa: E402


def setup(rec: Recorder, fields: dict) -> dict:
    """Build every field the workload names and the trace tables it reads.
    Returns the computed field element count."""
    from bentpds.field import canonical_field

    elements = 0
    for (p, m) in sorted(fields):
        with rec.span("field.build"):
            F = canonical_field(p, m)
        elements += F.size
    for (p, m), ks in sorted(fields.items()):
        F = canonical_field(p, m)
        for k in ks:
            with rec.span("field.trace_table"):
                F.trace(k, 0)
    return {"field.elements": elements}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["pass", "setup", "cold"], default="pass")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-sigma", action="store_true")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    rec = Recorder(args.run_id, enabled=bool(args.trace))
    with rec.span("import"):
        import workloads  # imports bentpds and numpy: part of set-up

    fields = (workloads.TINY_FIELDS if args.tiny else workloads.FIELDS)[args.workload]
    counts = setup(rec, fields)
    record = {"setup_s": time.perf_counter() - T_START}

    if args.mode != "setup":
        recipes = workloads.RECIPES[args.workload](args.seed, args.tiny)
    if args.mode == "cold":
        record["first_transform_extra_s"] = workloads.cold_transform_probe(recipes)
    elif args.mode == "pass":
        tmp = Path(args.out).with_suffix(".tmp")
        tmp.mkdir(parents=True, exist_ok=True)
        ctx = workloads.Context(args.workload, args.seed, rec, tmp, args.corrupt_sigma)
        try:
            with rec.span("pass"):
                t0 = time.perf_counter()
                workloads.PASSES[args.workload](ctx, recipes)
                record["solve_s"] = time.perf_counter() - t0
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                # the pipeline's pair lives behind the CLI: rebuild it for the probes
                pairs = ctx.pairs or [(r, r.build(), None) for r in recipes]
                record["probes"] = workloads.layer_probes(pairs)
                if args.workload == "pipeline_3p12":
                    record["cli_io"] = workloads.pipeline_io_probe(ctx, pairs[0][1])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        record.update(
            attempted=ctx.attempted,
            failed=ctx.failed,
            failures=ctx.failures,
            verify_s=ctx.verify_s,
        )
        counts.update(rec.counts)
        if args.trace:
            record["coverage"] = rec.coverage("pass")
            record["span_totals"] = rec.totals()
            record["spans"] = rec.spans

    import numpy

    record["counts"] = counts
    record["numpy"] = numpy.__version__
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
