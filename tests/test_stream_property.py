"""Hypothesis properties of the streaming layer.

Two ingest contracts (``repro.stream.events``):

* the state after ``ingest(batch)`` is a pure function of the *set* of
  events — never of their order;
* re-ingesting any batch is a no-op (idempotence on duplicates).

One fold-in contract (``repro.stream.append``): splicing the seen-CSR
over two folds in sequence gives the per-user reference's CSR.

And three attach invariants (``repro.stream.expand``): routing a new tag
into a live taxonomy never breaks subtree containment (every node's
members stay a subset of its parent's), never duplicates a tag within a
node, and never orphans the tag (it lands in the root and exactly one
node per level along its path).  Embedding placement runs under
``REPRO_CHECK_MANIFOLD=1`` so Einstein-midpoint convexity is enforced,
not assumed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifolds import PoincareBall
from repro.stream import (
    StreamState,
    attach_tag,
    fold_seen_csr,
    fold_seen_csr_reference,
    place_tag_embedding,
)
from repro.taxonomy import Taxonomy, from_dict, to_dict

pytestmark = pytest.mark.slow

events_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=0, max_size=40
)


def _canonical(state: StreamState):
    return (
        [(e.user, e.item) for e in state.events()],
        state.pending_users().tolist(),
        state.new_users().tolist(),
        state.new_items().tolist(),
    )


@given(batch=events_strategy, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_ingest_is_order_insensitive_within_a_batch(batch, seed):
    shuffled = list(batch)
    np.random.default_rng(seed).shuffle(shuffled)
    a, b = StreamState(4, 5), StreamState(4, 5)
    ra, rb = a.ingest(batch), b.ingest(shuffled)
    assert _canonical(a) == _canonical(b)
    assert (ra.accepted, ra.duplicates) == (rb.accepted, rb.duplicates)
    assert ra.new_users == rb.new_users and ra.new_items == rb.new_items


@given(batch=events_strategy)
@settings(max_examples=60, deadline=None)
def test_ingest_is_idempotent_on_duplicates(batch):
    state = StreamState(4, 5)
    first = state.ingest(batch)
    before = _canonical(state)
    generation = state.generation
    second = state.ingest(batch)
    assert second.accepted == 0
    assert second.duplicates == len(batch)
    assert second.new_users == [] and second.new_items == []
    assert _canonical(state) == before
    assert state.generation == generation
    assert first.accepted == state.n_events


def _fold_twice(fold, batches, n_users: int = 4, n_items: int = 5):
    """Fold ``batches`` one after another into an empty baseline CSR."""
    indptr, indices = np.zeros(n_users + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    for batch in batches:
        state = StreamState(n_users, n_items, indptr, indices)
        state.ingest(batch)
        n_users = max([n_users, *[u + 1 for u in state.new_users().tolist()]])
        n_items = max([n_items, *[i + 1 for i in state.new_items().tolist()]])
        indptr, indices = fold(indptr, indices, state, n_users)
    return indptr, indices


@given(first=events_strategy, second=events_strategy)
@settings(max_examples=60, deadline=None)
def test_seen_csr_splice_matches_reference_over_two_folds(first, second):
    fast = _fold_twice(fold_seen_csr, [first, second])
    slow = _fold_twice(fold_seen_csr_reference, [first, second])
    for got, want in zip(fast, slow):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Taxonomy attach invariants
# ----------------------------------------------------------------------
def _base_taxonomy() -> Taxonomy:
    """Two-level tree over tags 0..5: {0,1,2} / {3,4,5} then singleton leaves."""
    parent = np.array([-1, 0, 0, -1, 3, 3], dtype=np.int64)
    return Taxonomy.from_parent_array(parent)


def _check_tree(taxonomy: Taxonomy, tag: int) -> None:
    holders = 0
    for node in taxonomy.nodes():
        members = node.members.tolist()
        assert len(members) == len(set(members)), "duplicate tag within a node"
        for child in node.children:
            assert set(child.members.tolist()) <= set(members), "containment broken"
            assert child.level == node.level + 1
        holders += int(tag in members)
    assert tag in taxonomy.root.members.tolist(), "attached tag orphaned from the root"
    assert holders >= 1


@pytest.fixture(autouse=True, scope="module")
def _manifold_checks_on():
    previous = os.environ.get("REPRO_CHECK_MANIFOLD")
    os.environ["REPRO_CHECK_MANIFOLD"] = "1"
    yield
    if previous is None:
        os.environ.pop("REPRO_CHECK_MANIFOLD", None)
    else:
        os.environ["REPRO_CHECK_MANIFOLD"] = previous


@given(
    psi_seed=st.integers(0, 2**31 - 1),
    density=st.floats(0.1, 0.9),
    delta=st.sampled_from([0.0, 0.05, 1e9]),
)
@settings(max_examples=40, deadline=None)
def test_attach_preserves_tree_invariants(psi_seed, density, delta):
    rng = np.random.default_rng(psi_seed)
    taxonomy = _base_taxonomy()
    tag = 6
    item_tags = (rng.random((12, 7)) < density).astype(np.float64)
    decision = attach_tag(taxonomy, item_tags, tag, delta=delta)

    _check_tree(taxonomy, tag)
    assert taxonomy.n_tags == 7
    assert decision.tag == tag
    assert decision.level == len(decision.path) or decision.general
    if delta >= 1e9:
        # Nothing clears an absurd threshold: retained as general at the root.
        assert decision.general and decision.path == []
        assert tag in taxonomy.root.general_tags.tolist()
    # The expanded tree still serialises through to_dict/from_dict
    # (the ``repro.ckpt/v1`` extra_state transport).
    clone = from_dict(to_dict(taxonomy))
    assert _canonical_tree(clone) == _canonical_tree(taxonomy)

    # Embedding placement stays inside the ball under active checks.
    ball = PoincareBall()
    tag_emb = ball.proj(rng.normal(0.0, 0.3, size=(7, 4)))
    terminal = taxonomy.root
    for step in decision.path:
        terminal = terminal.children[step]
    members = np.array([t for t in terminal.members.tolist() if t != tag], dtype=np.int64)
    point = place_tag_embedding(tag_emb, members, ball=ball)
    assert np.linalg.norm(point) < 1.0


def _canonical_tree(taxonomy: Taxonomy):
    return [
        (node.level, sorted(node.members.tolist()), sorted(node.general_tags.tolist()))
        for node in taxonomy.nodes()
    ]


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_attach_is_deterministic_under_repeated_construction(seed):
    rng = np.random.default_rng(seed)
    item_tags = (rng.random((10, 7)) < 0.4).astype(np.float64)
    decisions = []
    trees = []
    for _ in range(2):
        taxonomy = _base_taxonomy()
        decisions.append(attach_tag(taxonomy, item_tags, 6).to_dict())
        trees.append(_canonical_tree(taxonomy))
    assert decisions[0] == decisions[1]
    assert trees[0] == trees[1]
