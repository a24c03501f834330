"""Turn one workload's measurements into the benchmark's metrics.

Every workload reports the same five end-to-end metrics, each with a
meaning fixed per workload (``README.md`` has the table):

* ``setup_s`` — median over ``SETUP_REPEATS`` fresh processes of the
  time from process start to the first operation the program can serve;
* ``peak_rss_mb`` — summed peak RSS of the program's processes;
* ``p50_ms`` / ``tail_ms`` — median and tail time of the workload's unit
  operation;
* ``throughput_per_s`` — work completed per second.

``named`` holds the workload's own metric names (``taxorec_fit_s``,
``recommend_p99_ms``, ``fold_p90_ms`` …) for the human-readable lines.
"""

from __future__ import annotations

from pathlib import Path

import inputs
import workload_serve
from common import run_child
from stats import median, percentile
from tracing import layer_metrics, load_dumps, span_durations

SETUP_REPEATS = 3
MAX_LAG_P99_MS = 20.0


class InvalidRun(RuntimeError):
    """The load generator fell behind its own schedule; nothing is scored."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(untraced: dict, traced: dict) -> dict:
    return {f"trace_overhead.{name}": traced[name] - untraced[name]
            for name in ("p50_ms", "tail_ms", "throughput_per_s")}


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _train_pass(seed: int, scratch: Path, trace: bool) -> tuple[float, dict]:
    out = scratch / f"train-{int(trace)}.json"
    return run_child(["perfbench/workload_train.py", "--seed", str(seed),
                      "--out", str(out), "--trace", str(int(trace))])


def _train_e2e(setup_s: float, result: dict) -> dict:
    taxorec, cml = result["models"]["TaxoRec"], result["models"]["CML"]
    paired = [a + b for a, b in zip(taxorec["epoch_s"], cml["epoch_s"])]
    fit_s = taxorec["fit_s"] + cml["fit_s"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ms": median(paired) * 1e3,
        "tail_ms": percentile(taxorec["step_s"] + cml["step_s"], 90) * 1e3,
        "throughput_per_s": (taxorec["triplets"] + cml["triplets"]) / fit_s,
    }


def run_train(seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    if trace:
        setup_s, result = _train_pass(seed, scratch, False)
        _, traced = _train_pass(seed, scratch, True)
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            out = scratch / "setup.json"
            setups.append(run_child(["perfbench/workload_train.py", "--seed", str(seed),
                                     "--out", str(out), "--setup-only"])[0])
        setup_s, result = _train_pass(seed, scratch, False)
        setup_s = median([*setups, setup_s])
    e2e = _train_e2e(setup_s, result)
    models = result["models"]
    report = {
        "shape": result["shape"],
        "e2e": e2e,
        "named": {
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "failed_ratio": (_ratio(result["failed"], result["attempted"]), "ratio"),
            "taxorec_fit_s": (models["TaxoRec"]["fit_s"], "s"),
            "cml_fit_s": (models["CML"]["fit_s"], "s"),
            "taxorec_ndcg_at_10": (models["TaxoRec"]["ndcg_at_10"], "ndcg"),
            "cml_ndcg_at_10": (models["CML"]["ndcg_at_10"], "ndcg"),
            "epoch_p50_ms": (e2e["p50_ms"], "ms"),
            "step_p90_ms": (e2e["tail_ms"], "ms"),
            "triplets_per_s": (e2e["throughput_per_s"], "1/s"),
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "models": models,
    }
    if trace:
        layers = layer_metrics([traced["trace"]])
        layers["optim.touched_row_ratio"] = _ratio(
            layers.get("optim.touched_rows", 0.0), layers.get("optim.stepped_rows", 0.0))
        layers.update(_overhead(e2e, _train_e2e(setup_s, traced)))
        report["layers"] = layers
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
    return report


# ----------------------------------------------------------------------
# stream_foldin
# ----------------------------------------------------------------------
def _stream_pass(artifact: Path, seed: int, seconds: float, scratch: Path,
                 trace: bool, setup_only: bool = False) -> tuple[float, dict]:
    out = scratch / f"stream-{int(trace)}{'-setup' if setup_only else ''}.json"
    args = ["perfbench/workload_stream.py", "--artifact", str(artifact), "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out), "--trace", str(int(trace))]
    return run_child(args + (["--setup-only"] if setup_only else []))


def _stream_e2e(setup_s: float, result: dict) -> dict:
    folds = result["fold_s"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "p50_ms": percentile(folds, 50) * 1e3,
        "tail_ms": percentile(folds, 90) * 1e3,
        # A ratio of sums, not a median of per-round rates: the host runs
        # in fast and slow stretches, and a median lands on whichever
        # holds the majority of a run's rounds.
        "throughput_per_s": sum(result["accepted_per_round"]) / sum(folds),
    }


def run_stream(seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    artifact, shape = inputs.build_artifact("stream_foldin", seed, scratch)
    if trace:
        setup_s, result = _stream_pass(artifact, seed, seconds, scratch, False)
        _, traced = _stream_pass(artifact, seed, seconds, scratch, True)
    else:
        setups = [_stream_pass(artifact, seed, seconds, scratch, False, setup_only=True)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        setup_s, result = _stream_pass(artifact, seed, seconds, scratch, False)
        setup_s = median([*setups, setup_s])
    e2e = _stream_e2e(setup_s, result)
    reads = result["read_s"]
    report = {
        "shape": {**shape, **result["shape"]},
        "e2e": e2e,
        "named": {
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "failed_ratio": (_ratio(result["failed"], result["attempted"]), "ratio"),
            "fold_p50_ms": (e2e["p50_ms"], "ms"),
            "fold_p90_ms": (e2e["tail_ms"], "ms"),
            "folded_events_per_s": (e2e["throughput_per_s"], "1/s"),
            "recommend_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
            "recommend_p99_ms": (percentile(reads, 99) * 1e3, "ms"),
            "rounds": (len(result["fold_s"]), "count"),
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fold_s": result["fold_s"],
    }
    if trace:
        layers = layer_metrics([traced["trace"]])
        layers["stream.accepted_ratio"] = _ratio(sum(traced["accepted_per_round"]), traced["offered"])
        pending = sum(p for p, _ in traced["rows"])
        rebuilt = sum(r for _, r in traced["rows"])
        layers["stream.rows_changed_ratio"] = _ratio(pending, rebuilt)
        cache = traced["stats"]
        layers["serve.cache.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
        layers.update(_overhead(e2e, _stream_e2e(setup_s, traced)))
        report["layers"] = layers
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
    return report


# ----------------------------------------------------------------------
# serve_large_catalog / serve_hot_pool
# ----------------------------------------------------------------------
def _serve_e2e(m: dict) -> dict:
    return {
        "setup_s": m["setup_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        "p50_ms": m["ref"]["p50_ms"],
        "tail_ms": m["ref"]["p90_ms"],
        "throughput_per_s": m["closed_loop_rps"],
    }


def _serve_layers(m: dict, trace_dir: Path, router_pid: int) -> dict:
    paths = sorted(trace_dir.glob("*.json"))
    dumps = load_dumps(paths)
    whole = layer_metrics(dumps)
    windows = [tuple(w) for w in m["windows"]]
    layers = layer_metrics(dumps, windows=windows)
    for name in ("serve.artifact.load_s", "retrieval.build_s", "backend.kernel_s",
                 "backend.kernel_calls"):
        layers[name] = whole.get(name, 0.0)
    front = [d for d in dumps if d["pid"] == router_pid]
    handle = span_durations(front, "serve.http.handle", windows=windows)
    latency_ms = [lat * 1e3 for lat in m["client_latency_s"]]
    if handle:
        layers["serve.queue_wait_ms"] = (sum(latency_ms) / len(latency_ms)
                                         - 1e3 * sum(handle) / len(handle))
    layers["serve.cache.hit_ratio"] = m["cache_hit_ratio"]
    layers["loadgen.lag_p99_ms"] = m["ref"]["lag_p99_ms"]
    return layers


def run_serve(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    artifact, shape = inputs.build_artifact(name, seed, scratch)
    m = workload_serve.measure(name, artifact, seed, seconds, None,
                               1 if trace else SETUP_REPEATS)
    if m["ref"]["lag_p99_ms"] > MAX_LAG_P99_MS:
        raise InvalidRun(f"load generator lag p99 {m['ref']['lag_p99_ms']:.1f} ms exceeds "
                         f"{MAX_LAG_P99_MS} ms; the run is not scored")
    e2e = _serve_e2e(m)
    spec = workload_serve.WORKLOADS[name]
    report = {
        "shape": {
            **shape, "seed": seed, "serve_flags": spec["flags"],
            "cache_size": workload_serve.CACHE_SIZE, "warm_requests": m["warm_requests"],
            "connections": workload_serve.CONNECTIONS, "k": workload_serve.K,
            "ref_rps": spec["ref_rps"], "ref_s": m["ref_s"], "rounds": workload_serve.ROUNDS,
            "burst_s": workload_serve.BURST_S, "probe_s": workload_serve.PROBE_S,
            "probe_rates": [p["offered_rps"] for p in m["probes"]], "keys": spec["keys"],
        },
        "e2e": e2e,
        "named": {
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "failed_ratio": (_ratio(m["failed"], m["attempted"]), "ratio"),
            "recommend_p50_ms": (e2e["p50_ms"], "ms"),
            "recommend_p90_ms": (e2e["tail_ms"], "ms"),
            "recommend_p99_ms": (m["ref"]["p99_ms"], "ms"),
            "max_rps": (m["max_rps"], "1/s"),
            "closed_loop_rps": (m["closed_loop_rps"], "1/s"),
            "loadgen.lag_p99_ms": (m["ref"]["lag_p99_ms"], "ms"),
            "cache_hit_ratio": (m["cache_hit_ratio"], "ratio"),
        },
        "attempted": m["attempted"],
        "failed": m["failed"],
        "probes": m["probes"],
        "burst_rps": m["burst_rps"],
        "ref": m["ref"],
        "setups": m["setups"],
    }
    if trace:
        trace_dir = scratch / "trace"
        t = workload_serve.measure(name, artifact, seed, seconds, trace_dir, 1)
        layers = _serve_layers(t, trace_dir, t["server_pid"])
        layers.update(_overhead(e2e, _serve_e2e(t)))
        report["layers"] = layers
        report["attempted"] += t["attempted"]
        report["failed"] += t["failed"]
    return report


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    if workload == "train":
        return run_train(seed, seconds, trace, scratch)
    if workload == "stream_foldin":
        return run_stream(seed, seconds, trace, scratch)
    return run_serve(workload, seed, seconds, trace, scratch)
