"""Shard routing properties: the arithmetic the scale-out stack trusts.

Hypothesis property tests over :func:`shard_for_user` / :class:`ShardMap`
— every user lands on exactly one shard, assignments are stable across
calls (the hash is unsalted), striping covers every shard, and
re-sharding ``N → M`` preserves the user → *scores* mapping (what moves
is only which backend answers, never what it answers).  Plus the
contracts of a shard-owning :class:`RecommenderService`
(``shards=(owned, n_shards)``, one per pool worker): ownership
enforcement, cross-shard batching, swap propagation, and stats.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.serve import (
    BadRequestError,
    RecommenderService,
    ShardMap,
    ShardRoutingError,
    export_payload,
    shard_for_user,
)

users_st = st.integers(min_value=0, max_value=2**40)
shards_st = st.integers(min_value=1, max_value=64)


class TestShardForUser:
    @given(user=users_st, n_shards=shards_st)
    def test_every_user_maps_to_exactly_one_valid_shard(self, user, n_shards):
        shard = shard_for_user(user, n_shards)
        assert isinstance(shard, int)
        assert 0 <= shard < n_shards
        # Exactly one: the function is deterministic, so re-asking yields
        # the same shard — there is no second assignment to disagree with.
        assert shard_for_user(user, n_shards) == shard

    @given(user=users_st)
    def test_single_shard_owns_everyone(self, user):
        assert shard_for_user(user, 1) == 0

    @given(n_shards=st.integers(min_value=2, max_value=16))
    def test_contiguous_ids_spread_over_shards(self, n_shards):
        """The hash must break up contiguous id blocks (a bare modulo wouldn't)."""
        assignments = {shard_for_user(u, n_shards) for u in range(256)}
        assert len(assignments) == n_shards

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_user(3, 0)


class TestShardMap:
    @given(
        user=users_st,
        n_shards=shards_st,
        n_workers=st.integers(min_value=1, max_value=8),
    )
    def test_user_worker_consistent_with_shard_striping(self, user, n_shards, n_workers):
        shard_map = ShardMap(n_shards=n_shards, n_workers=n_workers)
        shard = shard_for_user(user, n_shards)
        worker = shard_map.worker_for_user(user)
        assert worker == shard % n_workers
        assert shard in shard_map.shards_for_worker(worker)

    @given(n_shards=shards_st, n_workers=st.integers(min_value=1, max_value=8))
    def test_workers_partition_the_shard_space(self, n_shards, n_workers):
        shard_map = ShardMap(n_shards=n_shards, n_workers=n_workers)
        owned = [
            shard for w in range(n_workers) for shard in shard_map.shards_for_worker(w)
        ]
        assert sorted(owned) == list(range(n_shards))  # exactly once each

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(n_shards=0, n_workers=1)
        with pytest.raises(ValueError):
            ShardMap(n_shards=4, n_workers=0)
        with pytest.raises(ValueError):
            ShardMap(n_shards=4, n_workers=2).worker_for_shard(4)
        with pytest.raises(ValueError):
            ShardMap(n_shards=4, n_workers=2).shards_for_worker(2)


@pytest.fixture(scope="module")
def artifact_path(tiny_split, tmp_path_factory):
    rng = np.random.default_rng(23)
    train = tiny_split.train
    path = tmp_path_factory.mktemp("router") / "dense.npz"
    export_payload(
        path,
        score_fn="dense",
        arrays={"scores": rng.random((train.n_users, train.n_items))},
        train=train,
        model_name="Dense",
    )
    return path


@pytest.fixture(scope="module")
def flat(artifact_path):
    return RecommenderService(artifact_path, cache_size=0)


class TestShardOwnership:
    """``RecommenderService(shards=(owned, n_shards))``: one service per worker."""

    def test_resharding_preserves_user_to_scores_mapping(self, artifact_path, flat):
        """N → M re-shard: every user's response is unchanged, bit for bit.

        The deployment's shard count is pure topology — re-sharding from
        2 to 5 shards re-routes users to different backends but must
        never change what any user receives.
        """
        deployments = {
            n_shards: [
                RecommenderService(artifact_path, shards=((s,), n_shards))
                for s in range(n_shards)
            ]
            for n_shards in (2, 5)
        }
        for user in range(flat.n_users):
            ref_items, ref_scores = flat.recommend(user, k=10)
            for n_shards, services in deployments.items():
                owner = services[shard_for_user(user, n_shards)]
                items, scores = owner.recommend(user, k=10)
                np.testing.assert_array_equal(items, ref_items, err_msg=f"user {user}")
                np.testing.assert_array_equal(scores, ref_scores, err_msg=f"user {user}")

    def test_partial_ownership_rejects_foreign_users(self, artifact_path):
        """A worker owning a shard subset 421s every user it does not own."""
        n_shards = 4
        owned = (0, 2)
        worker = RecommenderService(artifact_path, shards=(owned, n_shards))
        owned_set = set(owned)
        seen_owned = seen_foreign = 0
        for user in range(worker.n_users):
            if shard_for_user(user, n_shards) in owned_set:
                items, _ = worker.recommend(user, k=5)
                assert len(items) == 5
                seen_owned += 1
            else:
                with pytest.raises(ShardRoutingError):
                    worker.recommend(user, k=5)
                seen_foreign += 1
        assert seen_owned and seen_foreign  # the tiny dataset hits both paths

    def test_recommend_batch_routes_across_shards(self, artifact_path, flat):
        sharded = RecommenderService(artifact_path, shards=((0, 1, 2), 3))
        users = [5, 0, 17, 5, 42, 3]  # duplicates and shard-mixing on purpose
        assert len({shard_for_user(u, 3) for u in users}) > 1
        items, scores = sharded.recommend_batch(users, k=8)
        assert items.shape == (len(users), 8)
        for row, user in enumerate(users):
            ref_items, ref_scores = flat.recommend(user, k=8)
            np.testing.assert_array_equal(items[row], ref_items)
            np.testing.assert_array_equal(scores[row], ref_scores)

    def test_mixed_batch_with_foreign_user_changes_nothing(self, artifact_path):
        """One foreign user fails the whole batch before any counter or cache moves."""
        worker = RecommenderService(artifact_path, cache_size=64, shards=((0,), 3))
        owned = [u for u in range(worker.n_users) if shard_for_user(u, 3) == 0]
        foreign = next(u for u in range(worker.n_users) if shard_for_user(u, 3) != 0)
        worker.recommend(owned[0], k=4)  # one cached entry to watch
        before = worker.stats()
        with pytest.raises(ShardRoutingError):
            worker.recommend_batch([owned[1], foreign, owned[2]], k=4)
        after = worker.stats()
        assert after["requests"] == before["requests"]
        assert after["cache"] == before["cache"]
        assert after["latency"]["count"] == before["latency"]["count"]

    def test_swap_propagates_to_every_shard(self, artifact_path, tiny_split, tmp_path):
        rng = np.random.default_rng(77)
        train = tiny_split.train
        other = tmp_path / "other.npz"
        export_payload(
            other,
            score_fn="dense",
            arrays={"scores": rng.random((train.n_users, train.n_items))},
            train=train,
            model_name="DenseV2",
        )
        sharded = RecommenderService(artifact_path, shards=((0, 1, 2), 3))
        version = sharded.swap_artifact(other)
        assert version == 2
        reference = RecommenderService(other, cache_size=0)
        shards_hit = set()
        for user in range(0, sharded.n_users, 7):
            items, scores = sharded.recommend(user, k=6)
            ref_items, ref_scores = reference.recommend(user, k=6)
            np.testing.assert_array_equal(items, ref_items)
            np.testing.assert_array_equal(scores, ref_scores)
            shards_hit.add(shard_for_user(user, 3))
        assert shards_hit == {0, 1, 2}
        stats = sharded.stats()
        assert stats["artifact"] == {"version": 2, "swaps": 1}

    def test_stats_aggregate_request_totals(self, artifact_path, flat):
        sharded = RecommenderService(artifact_path, shards=((0, 1, 2), 3))
        for user in range(12):
            sharded.recommend(user, k=3)
        sharded.score(0, [0, 1, 2])
        stats = sharded.stats()
        assert stats["shards"] == {"owned": [0, 1, 2], "n_shards": 3}
        assert stats["requests"] == {"recommend": 12, "score": 1, "total": 13}
        assert stats["latency"]["count"] == 13
        assert flat.stats()["shards"] is None

    def test_invalid_shapes_rejected(self, artifact_path):
        with pytest.raises(BadRequestError):
            RecommenderService(artifact_path, shards=((0,), 0))
        with pytest.raises(BadRequestError):
            RecommenderService(artifact_path, shards=((), 2))
        with pytest.raises(BadRequestError):
            RecommenderService(artifact_path, shards=((0, 2), 2))
        with pytest.raises(BadRequestError):
            RecommenderService(artifact_path, shards=((-1, 0), 2))
