"""Inference/serving subsystem: freeze a trained model, serve top-K.

The serving spine is ``train → export → serve``:

* :func:`export_model` / :func:`export_from_checkpoint` freeze a trained
  model (live, or rebuilt from a ``repro.ckpt/v1`` checkpoint / run dir)
  into a versioned ``repro.model/v1`` ``.npz`` artifact;
* :class:`RecommenderService` loads an artifact and answers
  ``recommend(user, k, exclude_seen=True)`` / ``score(user, items)``
  with pure-numpy batched scoring, an optional precomputed top-K index,
  a bounded LRU cache, and latency/throughput counters;
* :func:`create_server` wraps a service in a stdlib JSON HTTP endpoint
  (``python -m repro serve``).

Served rankings are guaranteed identical to the offline evaluator's
(same deterministic ``(-score, id)`` tiebreak, same exclude-seen
masking) — see ``tests/test_serve_parity.py`` and ``docs/SERVE.md``.

Scale-out layer (``docs/SERVE.md`` → *Scaling & load testing*):

* :func:`export_shared` / :func:`load_shared` — mmap-able shared
  bundles so a worker pool shares one physical copy of the arrays;
  :func:`publish_artifact` flips a deployment symlink atomically;
* :func:`shard_for_user` / :class:`ShardMap` — deterministic user-hash
  sharding shared by router, workers and clients;
  ``RecommenderService(shards=(owned, n_shards))`` serves only the
  owned shards' users (421 for the rest), bit-identical to a flat
  service for those it owns;
* :class:`MicroBatcher` — coalesces concurrent ``/recommend`` calls
  into one batched scoring pass (``create_server(..., batcher=...)``);
* :class:`WorkerPool` + :func:`create_router` — forked workers, each one
  shard-owning service (plus a batcher), behind an HTTP router, with
  hot-swap watching;
* ``python -m repro.bench.load`` — the closed-loop load harness that
  sweeps workers × concurrency into a ``repro.bench/v1`` report.
"""

from .artifact import (
    MODEL_SCHEMA,
    ModelArtifact,
    artifact_from_model,
    export_from_checkpoint,
    export_model,
    export_payload,
    load_artifact,
    save_artifact,
    validate_model_artifact,
)
from .batching import MicroBatcher
from .errors import (
    ArtifactError,
    BadRequestError,
    SchemaMismatchError,
    ServeError,
    ShardRoutingError,
    UnknownScoreFnError,
)
from .http import ServiceHTTPServer, create_server, serve_until_drained
from .pool import ArtifactWatcher, WorkerPool
from .router import RouterHTTPServer, create_router
from .scoring import SCORE_FNS, FrozenScorer
from .service import RecommenderService
from .shared import (
    artifact_fingerprint,
    export_shared,
    load_shared,
    publish_artifact,
)
from .sharding import ShardMap, shard_for_user

__all__ = [
    "MODEL_SCHEMA",
    "ModelArtifact",
    "artifact_from_model",
    "export_model",
    "export_payload",
    "export_from_checkpoint",
    "load_artifact",
    "save_artifact",
    "validate_model_artifact",
    "ServeError",
    "ArtifactError",
    "SchemaMismatchError",
    "UnknownScoreFnError",
    "BadRequestError",
    "ShardRoutingError",
    "SCORE_FNS",
    "FrozenScorer",
    "RecommenderService",
    "ServiceHTTPServer",
    "create_server",
    "serve_until_drained",
    "MicroBatcher",
    "RouterHTTPServer",
    "create_router",
    "WorkerPool",
    "ArtifactWatcher",
    "ShardMap",
    "shard_for_user",
    "export_shared",
    "load_shared",
    "publish_artifact",
    "artifact_fingerprint",
]
