"""User-hash sharding: the pure arithmetic underneath the scale-out stack.

A shard is a deterministic function of the user id alone — no lookup
table, no coordination — so every router, worker and client library
computes the same assignment independently.  The hash is a fixed-width
integer mix (splitmix64 finalizer), not Python's salted ``hash``, so
assignments are stable across processes, machines and interpreter runs:
the property the re-sharding tests in ``tests/test_serve_router.py``
lean on.

``ShardMap`` adds the second level: which worker process owns which
shard.  Shards are striped round-robin over workers so ``n_shards`` can
exceed ``n_workers`` (the CI smoke runs 2 workers × 4 shards; a
re-shard from N to M workers keeps the user → shard function unchanged
and only remaps shard → worker).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["shard_for_user", "ShardMap"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit integer mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def shard_for_user(user: int, n_shards: int) -> int:
    """The unique shard in ``[0, n_shards)`` owning ``user``.

    Deterministic, process-independent, and uniform even for the
    contiguous integer ids the synthetic presets use (a bare modulo
    would correlate with id-assignment order).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return _splitmix64(int(user)) % n_shards


@dataclass(frozen=True)
class ShardMap:
    """Static shard → worker assignment for one pool deployment.

    Shard ``s`` lives on worker ``s % n_workers``; users map to shards
    via :func:`shard_for_user`.  Frozen so a map can be shared freely
    across router threads.
    """

    n_shards: int
    n_workers: int

    def __post_init__(self) -> None:
        if self.n_shards < 1 or self.n_workers < 1:
            raise ValueError(
                f"need at least one shard and one worker, got "
                f"{self.n_shards} shard(s) on {self.n_workers} worker(s)"
            )

    def worker_for_shard(self, shard: int) -> int:
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range for {self.n_shards} shards")
        return shard % self.n_workers

    def worker_for_user(self, user: int) -> int:
        return self.worker_for_shard(shard_for_user(user, self.n_shards))

    def shards_for_worker(self, worker: int) -> tuple[int, ...]:
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range for {self.n_workers} workers")
        return tuple(range(worker, self.n_shards, self.n_workers))
