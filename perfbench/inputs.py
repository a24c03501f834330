"""Seeded inputs: artifacts, request keys and event batches.

Everything the program receives is built here from the run's seed, so
the same seed gives the same inputs.  Artifacts are written with the
program's own ``export_payload`` (``repro.model/v1``) from interactions
drawn by this module, not by a training run: serving and fold-in cost
depends on the catalogue's shape, not on how well the embeddings rank.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ARTIFACTS = {
    "serve_large_catalog": ("euclid", {"n_users": 20000, "n_items": 20000, "dim": 64}),
    "serve_hot_pool": ("lorentz", {"n_users": 20000, "n_items": 3000, "dim": 64, "tag_dim": 12}),
    "stream_foldin": ("lorentz", {"n_users": 20000, "n_items": 5000, "dim": 64, "tag_dim": 12}),
}
N_TAGS = 8
INTERACTIONS_PER_USER = 20
ITEM_SKEW = 0.8  # item popularity ∝ rank^-ITEM_SKEW
USER_ZIPF = 1.1  # hot-pool user popularity ∝ rank^-USER_ZIPF


def _popularity(n: int, skew: float, rng) -> np.ndarray:
    """Probabilities ∝ rank^-skew over a seeded permutation of ``n`` ids."""
    weights = 1.0 / np.arange(1, n + 1) ** skew
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return probs


def _dataset(n_users: int, n_items: int, rng, name: str):
    from repro.data import InteractionDataset

    users = np.repeat(np.arange(n_users), INTERACTIONS_PER_USER)
    items = rng.choice(n_items, size=len(users), p=_popularity(n_items, ITEM_SKEW, rng))
    tags = (rng.random((n_items, N_TAGS)) < 0.2).astype(np.float64)
    return InteractionDataset(
        n_users, n_items, N_TAGS, users, items,
        np.arange(len(users), dtype=np.float64), tags, name=name,
    )


def _lorentz_rows(n: int, dim: int, rng, scale: float) -> np.ndarray:
    """Points on the unit hyperboloid: time coordinate sqrt(1 + |x|^2)."""
    space = rng.standard_normal((n, dim)) * scale
    time_ = np.sqrt(1.0 + (space * space).sum(axis=1, keepdims=True))
    return np.hstack([time_, space])


def euclid_artifact(path, seed: int, n_users: int, n_items: int, dim: int) -> dict:
    """CML-shaped ``neg_sq_euclid`` artifact; returns its shape record."""
    from repro.serve import export_payload

    rng = np.random.default_rng([seed, 1])
    train = _dataset(n_users, n_items, rng, "perfbench-euclid")
    export_payload(
        path,
        score_fn="neg_sq_euclid",
        arrays={
            "user": rng.standard_normal((n_users, dim)) / np.sqrt(dim),
            "item": rng.standard_normal((n_items, dim)) / np.sqrt(dim),
        },
        train=train,
        model_name="CML",
    )
    return {"score_fn": "neg_sq_euclid", "users": n_users, "items": n_items, "dim": dim}


def lorentz_artifact(path, seed: int, n_users: int, n_items: int, dim: int, tag_dim: int) -> dict:
    """TaxoRec-shaped ``two_channel_lorentz`` artifact (paper Eq. 17)."""
    from repro.serve import export_payload

    rng = np.random.default_rng([seed, 2])
    train = _dataset(n_users, n_items, rng, "perfbench-lorentz")
    export_payload(
        path,
        score_fn="two_channel_lorentz",
        arrays={
            "user_ir": _lorentz_rows(n_users, dim, rng, 0.3),
            "item_ir": _lorentz_rows(n_items, dim, rng, 0.3),
            "user_tg": _lorentz_rows(n_users, tag_dim, rng, 0.3),
            "item_tg": _lorentz_rows(n_items, tag_dim, rng, 0.3),
            "alpha": rng.uniform(0.5, 1.5, n_users),
        },
        train=train,
        model_name="TaxoRec",
    )
    return {
        "score_fn": "two_channel_lorentz", "users": n_users, "items": n_items,
        "dim": dim, "tag_dim": tag_dim,
    }


def build_artifact(workload: str, seed: int, out_dir) -> tuple[Path, dict]:
    """Write ``workload``'s seeded artifact under ``out_dir``; return path and shape."""
    kind, params = ARTIFACTS[workload]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-{seed}.npz"
    make = euclid_artifact if kind == "euclid" else lorentz_artifact
    return path, make(path, seed, **params)


def distinct_users(seed: int, n_users: int) -> list[int]:
    """Every user once, in seeded order (no repeats, so no cache hits)."""
    return np.random.default_rng([seed, 3]).permutation(n_users).tolist()


def zipf_users(seed: int, n_users: int, count: int) -> list[int]:
    """``count`` user draws with Zipf(USER_ZIPF) popularity."""
    rng = np.random.default_rng([seed, 4])
    return rng.choice(n_users, size=count, p=_popularity(n_users, USER_ZIPF, rng)).tolist()


class EventStream:
    """Seeded event batches against a growing catalogue.

    Each batch holds ``EXISTING`` events of random existing users on
    random existing items, ``NEW_USERS`` new users and ``NEW_ITEMS`` new
    items (touched by existing users) with ``PER_NEW`` events each, and
    ``DUPLICATES`` repeats of events already in the batch.
    """

    EXISTING, NEW_USERS, NEW_ITEMS, PER_NEW, DUPLICATES = 100, 4, 2, 3, 10

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 5])

    def batch(self, n_users: int, n_items: int) -> list[tuple[int, int]]:
        rng = self.rng
        users = rng.integers(0, n_users, self.EXISTING)
        items = rng.integers(0, n_items, self.EXISTING)
        events = list(zip(users.tolist(), items.tolist()))
        for j in range(self.NEW_USERS):
            for item in rng.integers(0, n_items, self.PER_NEW).tolist():
                events.append((n_users + j, item))
        for j in range(self.NEW_ITEMS):
            for user in rng.integers(0, n_users, self.PER_NEW).tolist():
                events.append((user, n_items + j))
        picks = rng.integers(0, len(events), self.DUPLICATES).tolist()
        events.extend(events[i] for i in picks)
        return events
