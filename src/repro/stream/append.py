"""Appending fold-in results to a loaded ``repro.model/v1`` artifact.

:func:`fold_into_artifact` takes a frozen artifact plus a
:class:`~repro.stream.events.StreamState` and produces a *new* artifact:

* **New items first** — each item id beyond the artifact's ``n_items``
  gets a row solved from the frozen embeddings of the existing users who
  touched it (:func:`~repro.stream.foldin.fold_in_item`); id-space gaps
  are filled with origin rows.  Existing item rows stay frozen — fold-in
  updates the user side against a fixed catalogue (the ASOS pattern), so
  scores of untouched users never move.
* **Then users** — every pending user is solved against the (now
  extended) item arrays.  A new user is appended; an existing user's row
  is *replaced* by the prior-blended solve, where the prior weight is
  their baseline interaction count.  A user whose events were all
  duplicates has no pending delta and is untouched.
* The seen-CSR is extended with the union of baseline and evidence, so
  ``exclude_seen`` keeps masking everything the user ever touched.  It
  is spliced (:func:`fold_seen_csr`): only pending users' rows are
  recomputed, every other row is copied, so a fold costs time in
  proportion to the rows it changes.
* Provenance lands in ``meta["stream"]``:
  ``{"generation", "folded_users", "folded_items"}`` — surfaced by
  ``RecommenderService.stats()`` and the golden fixtures.

The result re-validates against the full ``repro.model/v1`` contract
before it is returned, and :func:`fold_into_service` pushes it through
the existing ``swap_artifact`` / cache-invalidate path — new users get
recommendations without a redeploy.
"""

from __future__ import annotations

import copy

import numpy as np

from ..serve.artifact import ModelArtifact, validate_model_artifact
from .events import StreamState
from .foldin import (
    RIDGE,
    FoldInUnsupported,
    fold_in_item,
    fold_in_user,
    fold_in_user_reference,
    foldable_score_fns,
    origin_rows,
)

__all__ = [
    "fold_into_artifact",
    "fold_into_service",
    "fold_seen_csr",
    "fold_seen_csr_reference",
]

_USER_SIDE = ("user", "user_aspect", "user_ir", "user_tg", "alpha")
_ITEM_SIDE = ("item", "item_aspect", "item_bias", "item_ir", "item_tg")


def _grow(arr: np.ndarray, rows: int) -> np.ndarray:
    """Copy ``arr`` with ``rows`` zero rows appended (1-d aware)."""
    if rows == 0:
        return np.copy(arr)
    pad = np.zeros((rows,) + arr.shape[1:], dtype=arr.dtype)
    return np.concatenate([arr, pad], axis=0)


def _apply(arrays: dict, index: int, solved: dict) -> None:
    for name, value in solved.items():
        arrays[name][index] = value


def fold_seen_csr(
    seen_indptr: np.ndarray, seen_indices: np.ndarray, state: StreamState, n_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """The seen-CSR over ``n_users`` rows: baseline ∪ the state's evidence.

    A splice: only the state's pending users get a new row
    (``np.union1d`` of baseline and evidence); every other baseline row
    is copied verbatim, as at most ``len(pending) + 1`` contiguous slices
    of ``seen_indices``.  Users past the baseline without evidence get
    empty rows.  Cost is O(pending rows + one memcpy of the CSR).

    Precondition: every baseline row is strictly increasing (the
    ``repro.model/v1`` validator checks it), so a copied row already
    equals its union with no evidence — bit-identical to
    :func:`fold_seen_csr_reference`.
    """
    base_users = len(seen_indptr) - 1
    lengths = np.zeros(n_users, dtype=np.int64)
    lengths[:base_users] = np.diff(seen_indptr)
    pending = state.pending_users().tolist()
    rows = []
    for user in pending:
        if user < base_users:
            base = seen_indices[seen_indptr[user] : seen_indptr[user + 1]]
        else:
            base = np.empty(0, dtype=np.int64)
        row = np.union1d(base, state.items_of(user)).astype(np.int64)
        rows.append(row)
        lengths[user] = len(row)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)

    def copy_untouched(start: int, stop: int) -> None:
        if stop > start:
            indices[indptr[start] : indptr[stop]] = seen_indices[seen_indptr[start] : seen_indptr[stop]]

    start = 0  # first user of the current run of untouched baseline rows
    for user, row in zip(pending, rows):
        copy_untouched(start, min(user, base_users))
        indices[indptr[user] : indptr[user + 1]] = row
        start = user + 1
    copy_untouched(start, base_users)
    return indptr, indices


def fold_seen_csr_reference(
    seen_indptr: np.ndarray, seen_indices: np.ndarray, state: StreamState, n_users: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user twin of :func:`fold_seen_csr`: one ``np.union1d`` per row."""
    base_users = len(seen_indptr) - 1
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    chunks = []
    for user in range(n_users):
        if user < base_users:
            base = seen_indices[seen_indptr[user] : seen_indptr[user + 1]]
        else:
            base = np.empty(0, dtype=np.int64)
        row = np.union1d(base, state.items_of(user)).astype(np.int64)
        chunks.append(row)
        indptr[user + 1] = indptr[user] + len(row)
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return indptr, indices


def fold_into_artifact(
    artifact: ModelArtifact,
    state: StreamState,
    ridge: float = RIDGE,
    use_reference: bool = False,
) -> ModelArtifact:
    """Fold a stream state's deltas into a frozen artifact.

    Returns a new, validated :class:`ModelArtifact`; the input artifact
    is never mutated.  ``use_reference=True`` routes every solve through
    the pure-numpy ``*_reference`` twins (differential suite).

    Raises :class:`~repro.stream.foldin.FoldInUnsupported` for ``dense``
    artifacts and ``ValueError`` if the folded result fails
    ``repro.model/v1`` validation.
    """
    score_fn = artifact.score_fn
    if score_fn not in foldable_score_fns():
        raise FoldInUnsupported(score_fn, "artifact carries no per-user embeddings")
    solve_user = fold_in_user_reference if use_reference else fold_in_user
    n_users, n_items = artifact.n_users, artifact.n_items
    new_items = state.new_items()
    new_users = state.new_users()
    out_n_items = int(max([n_items, *[i + 1 for i in new_items.tolist()]]))
    out_n_users = int(max([n_users, *[u + 1 for u in new_users.tolist()]]))

    arrays = dict(artifact.arrays)
    for name in _ITEM_SIDE:
        if name in arrays:
            arrays[name] = _grow(arrays[name], out_n_items - n_items)

    # -- items first: new rows solved from frozen *existing*-user rows --
    folded_items = []
    for item in range(n_items, out_n_items):
        users = state.users_of(item)
        users = users[users < n_users]
        if users.size:
            _apply(arrays, item, fold_in_item(score_fn, artifact.arrays, users, ridge=ridge))
            folded_items.append(item)
        else:
            _apply(arrays, item, origin_rows(score_fn, artifact.arrays, side="item"))

    # -- then users, against the extended item arrays -------------------
    for name in _USER_SIDE:
        if name in arrays:
            arrays[name] = _grow(arrays[name], out_n_users - n_users)
    # One origin row (and one frozen-alpha median) per fold, not per new user.
    user_origin = origin_rows(score_fn, artifact.arrays, side="user") if out_n_users > n_users else {}
    for user in range(n_users, out_n_users):
        _apply(arrays, user, user_origin)

    folded_users = []
    for user in state.pending_users().tolist():
        items = state.items_of(user)
        if user < n_users:
            prior = {
                name: (float(artifact.arrays[name][user]) if name == "alpha" else artifact.arrays[name][user])
                for name in _USER_SIDE
                if name in artifact.arrays
            }
            weight = float(artifact.seen_indptr[user + 1] - artifact.seen_indptr[user])
        else:
            prior, weight = None, 0.0
        solved = solve_user(
            score_fn, arrays, items, prior, weight, ridge=ridge, default_alpha=user_origin.get("alpha")
        )
        _apply(arrays, user, solved)
        folded_users.append(user)

    # -- seen-CSR: union of baseline and evidence -----------------------
    indptr, indices = fold_seen_csr(artifact.seen_indptr, artifact.seen_indices, state, out_n_users)

    meta = copy.deepcopy(artifact.meta)
    meta["dataset"]["n_users"] = out_n_users
    meta["dataset"]["n_items"] = out_n_items
    meta["arrays"] = {name: list(arr.shape) for name, arr in arrays.items()}
    prev = meta.get("stream", {})
    meta["stream"] = {
        "generation": int(prev.get("generation", 0)) + 1,
        "folded_users": sorted(folded_users),
        "folded_items": sorted(folded_items),
    }

    problems = validate_model_artifact(meta, arrays, indptr, indices)
    if problems:
        raise ValueError(f"folded artifact failed validation: {problems}")
    return ModelArtifact(meta, arrays, indptr, indices, tag_names=list(artifact.tag_names))


def fold_into_service(service, state: StreamState, ridge: float = RIDGE) -> ModelArtifact:
    """Fold deltas into a live service via the swap/invalidate path.

    Returns the folded artifact after ``service.swap_artifact`` has
    atomically flipped to it (old snapshot retired, caches invalidated).
    """
    folded = fold_into_artifact(service.artifact, state, ridge=ridge)
    service.swap_artifact(folded)
    return folded
