"""The repository's benchmark: one command, four workloads, output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_hot_pool --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced) of the timing metrics.  Every line but the last is for
people; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result (workload shape, environment, every metric) is also written to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("train", "serve_large_catalog", "serve_hot_pool", "stream_foldin")

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
}
TIMING = ("p50_ms", "tail_ms", "throughput_per_s")

LAYERS = {
    "data.generate_s": "s",
    "data.sample_s": "s",
    "models.loss_batch_s": "s",
    "autodiff.backward_s": "s",
    "optim.step_s": "s",
    "optim.touched_row_ratio": "ratio",
    "taxonomy.rebuild_s": "s",
    "taxonomy.rebuild_count": "count",
    "eval.evaluate_s": "s",
    "train.batches": "count",
    "backend.kernel_s": "s",
    "backend.kernel_calls": "count",
    "serve.http.handle_s": "s",
    "serve.router.forward_s": "s",
    "serve.service.recommend_s": "s",
    "serve.scoring.score_users_s": "s",
    "eval.rank_topk_s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.artifact.load_s": "s",
    "retrieval.build_s": "s",
    "loadgen.lag_p99_ms": "ms",
    "stream.ingest_s": "s",
    "stream.accepted_ratio": "ratio",
    "stream.solve_s": "s",
    "stream.fold_artifact_s": "s",
    "stream.rows_changed_ratio": "ratio",
    "serve.artifact.validate_s": "s",
    "serve.service.swap_s": "s",
    **{f"trace_overhead.{name}": E2E[name] for name in TIMING},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# One BLAS thread per process: on a small box the load generator, the
# router and the workers share the cores, and idle BLAS threads spinning
# after each product would steal them.  Recorded in every result.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from common import OUT, environment, write_json

    scratch = OUT / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except workloads.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["environment"] = environment()
    report["args"] = vars(args)
    wanted = LAYERS if args.trace else E2E
    metrics = {name: {"value": float(report["layers" if args.trace else "e2e"].get(name, 0.0)),
                      "unit": unit} for name, unit in wanted.items()}
    write_json(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", report)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("  shape: " + json.dumps(report["shape"], sort_keys=True))
    print("  environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, (value, unit) in report["named"].items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  [layer] {name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = int(report["attempted"]), int(report["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
