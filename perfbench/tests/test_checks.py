"""Each output check fails when fed a perturbed reference."""

import threading

import numpy as np
import pytest

import inputs


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    good = root / "good.npz"
    other = root / "other.npz"
    inputs.euclid_artifact(good, seed=0, n_users=60, n_items=40, dim=8)
    inputs.euclid_artifact(other, seed=1, n_users=60, n_items=40, dim=8)
    return good, other


def test_serve_parity_check_fails_on_a_perturbed_reference(artifacts):
    from repro.serve import RecommenderService
    from repro.serve.http import create_server

    from workload_serve import parity_failures

    good, other = artifacts
    server = create_server(RecommenderService(good, cache_size=0), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = server.server_address[:2]
        users = list(range(0, 60, 7))
        assert parity_failures(address, RecommenderService(good, cache_size=0), users) == 0
        assert parity_failures(address, RecommenderService(other, cache_size=0), users) > 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_train_eval_check_fails_on_a_perturbed_reference():
    from repro.eval import EvalResult

    from workload_train import eval_mismatches

    result = EvalResult(0.1, 0.2, 0.05, 0.07)
    assert eval_mismatches(result, EvalResult(0.1, 0.2, 0.05, 0.07)) == []
    assert eval_mismatches(result, EvalResult(0.1, 0.2, 0.05 + 1e-9, 0.07)) == ["ndcg_at_10"]


def test_stream_read_check_fails_on_a_perturbed_reference(artifacts):
    from repro.serve import RecommenderService, load_artifact
    from repro.stream import StreamState, fold_into_artifact, fold_into_service

    from workload_stream import K, read_mismatches

    good, _ = artifacts
    service = RecommenderService(good, cache_size=16)
    before = service.artifact
    state = StreamState.from_artifact(before)
    state.ingest([(3, 5), (60, 1), (60, 2), (7, 40)])
    fold_into_service(service, state)
    reads = {user: service.recommend(user, K) for user in (3, 7, 60)}

    fresh = RecommenderService(fold_into_artifact(before, state), cache_size=0)
    assert read_mismatches(reads, fresh) == []

    perturbed = fold_into_artifact(before, state)
    perturbed.arrays["item"] = perturbed.arrays["item"] + np.linspace(0, 1e-3, perturbed.n_items)[:, None]
    assert read_mismatches(reads, RecommenderService(perturbed, cache_size=0))
    assert load_artifact(good).n_users == 60  # the input artifact was not touched
