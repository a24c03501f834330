"""The serve load harness: schema fit, golden fixture, measurement sanity.

``repro.bench.load`` documents must be plain ``repro.bench/v1`` — the
validator that guards the hot-path trajectory accepts a committed
``BENCH_serve.json`` untouched and rejects seeded corruptions of it.
The measurement path is tested against a live tiny server: request
accounting must be exact, latency percentiles ordered, and the built-in
parity gate must actually catch a lying deployment.
"""

from __future__ import annotations

import copy
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import validate_result
from repro.bench.load import (
    build_parser,
    check_parity,
    deploy,
    run_load_cell,
    sweep,
)
from repro.serve import RecommenderService, ServeError, create_server, export_payload

GOLDEN = Path(__file__).parent / "fixtures" / "bench" / "BENCH_serve_golden.json"


@pytest.fixture(scope="module")
def artifact_path(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(71)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("load") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    return path


class TestGoldenFixture:
    def test_golden_document_validates_clean(self):
        result = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert validate_result(result) == []
        assert result["suite"] == "serve"
        names = [record["name"] for record in result["benchmarks"]]
        assert any(name.startswith("serve.load.w0.") for name in names)
        assert any(name.startswith("serve.load.w2.") for name in names)
        for record in result["benchmarks"]:
            workload = record["workload"]
            for key in ("workers", "shards", "concurrency", "requests",
                        "qps", "p50_ms", "p99_ms", "errors"):
                assert key in workload, (record["name"], key)
            assert workload["errors"] == 0
            assert workload["qps"] > 0
            assert workload["p50_ms"] <= workload["p99_ms"]
            assert len(record["fast"]["times_s"]) == workload["concurrency"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("schema"),
            lambda d: d.__setitem__("schema", "repro.bench/v0"),
            lambda d: d.pop("benchmarks"),
            lambda d: d["benchmarks"][0].pop("name"),
            lambda d: d["benchmarks"][0].pop("fast"),
            lambda d: d["benchmarks"][0]["fast"].pop("times_s"),
            lambda d: d["benchmarks"][0]["fast"].__setitem__("times_s", []),
            lambda d: d["benchmarks"][0]["fast"]["times_s"].__setitem__(0, -1.0),
            lambda d: d["benchmarks"][0].__setitem__(
                "reference", d["benchmarks"][0]["fast"]
            ),  # reference without a speedup
        ],
        ids=[
            "no-schema", "wrong-schema", "no-benchmarks", "no-name", "no-fast",
            "no-times", "empty-times", "negative-time", "reference-sans-speedup",
        ],
    )
    def test_seeded_corruptions_are_rejected(self, corrupt):
        document = copy.deepcopy(json.loads(GOLDEN.read_text(encoding="utf-8")))
        corrupt(document)
        assert validate_result(document) != []


class TestLoadCell:
    @pytest.fixture(scope="class")
    def live(self, artifact_path):
        service = RecommenderService(artifact_path, cache_size=0)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[:2], service
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_accounting_is_exact(self, live):
        address, service = live
        cell = run_load_cell(address, concurrency=4, requests=40,
                             n_users=service.n_users, k=5)
        assert cell["requests"] == 40
        assert cell["errors"] == 0
        assert cell["concurrency"] == 4
        assert len(cell["client_wall_s"]) == 4
        assert cell["qps"] > 0
        assert 0 < cell["p50_ms"] <= cell["p99_ms"]
        assert cell["wall_s"] >= max(cell["client_wall_s"]) - 0.5

    def test_invalid_shapes_rejected(self, live):
        address, service = live
        with pytest.raises(ValueError):
            run_load_cell(address, concurrency=0, requests=10, n_users=service.n_users)
        with pytest.raises(ValueError):
            run_load_cell(address, concurrency=8, requests=4, n_users=service.n_users)

    def test_parity_gate_passes_honest_deployment(self, live):
        address, service = live
        check_parity(address, RecommenderService(service.artifact), users=[0, 1, 2], k=5)

    def test_parity_gate_catches_mismatched_reference(self, live, tiny_split, tmp_path):
        address, _ = live
        rng = np.random.default_rng(72)  # different scores than the served artifact
        train = tiny_split.train
        other = tmp_path / "other.npz"
        export_payload(
            other,
            score_fn="dense",
            arrays={"scores": rng.random((train.n_users, train.n_items))},
            train=train,
            model_name="Dense",
        )
        with pytest.raises(ServeError, match="parity violation"):
            check_parity(address, RecommenderService(other), users=[0, 1, 2], k=5)


class TestSweep:
    def test_quick_sweep_emits_valid_document(self, artifact_path):
        result = sweep(
            artifact_path,
            workers_list=[0, 1],
            concurrency_list=[1, 2],
            requests=8,
            cache_size=16,
            quick=True,
        )
        assert validate_result(result) == []
        assert [r["name"] for r in result["benchmarks"]] == [
            "serve.load.w0.c1", "serve.load.w0.c2",
            "serve.load.w1.c1", "serve.load.w1.c2",
        ]
        assert result["environment"]["cpu_count"] >= 1
        assert result["config"]["cache_size"] == 16
        for record in result["benchmarks"]:
            assert record["workload"]["errors"] == 0

    def test_deploy_single_process_honours_micro_batch(self, artifact_path):
        from repro.bench.load import _fetch_json

        with deploy(artifact_path, workers=0, micro_batch=4) as (host, port):
            assert len(_fetch_json(host, port, "/recommend?user=0&k=5")["items"]) == 5
            stats = _fetch_json(host, port, "/stats")
        assert stats["batching"]["requests"] == 1
        with deploy(artifact_path, workers=0) as (host, port):
            assert "batching" not in _fetch_json(host, port, "/stats")

    def test_deploy_pool_serves_health(self, artifact_path, tmp_path):
        from repro.serve import export_shared
        import http.client

        bundle = export_shared(artifact_path, tmp_path / "bundle")
        with deploy(bundle, workers=1, shards=2) as (host, port):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                body = json.loads(response.read().decode("utf-8"))
            finally:
                conn.close()
            assert response.status == 200
            assert body["n_workers"] == 1 and body["n_shards"] == 2


class TestParser:
    def test_int_lists_and_defaults(self):
        args = build_parser().parse_args(
            ["model.npz", "--workers", "0,2", "--concurrency", "1,4,8"]
        )
        assert args.workers == [0, 2]
        assert args.concurrency == [1, 4, 8]
        assert args.cache == 0

    def test_synthetic_spec(self):
        args = build_parser().parse_args(["--synthetic", "120,200,16"])
        assert args.artifact is None
        assert args.synthetic == [120, 200, 16]

    def test_bad_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model.npz", "--workers", "two"])
