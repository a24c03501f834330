"""The ``stream_foldin`` workload, run as its own process.

One in-process caller in a closed loop over a ``two_channel_lorentz``
artifact.  Each round:

1. a seeded event batch arrives (:class:`inputs.EventStream`);
2. ``StreamState.from_artifact(service.artifact)`` and ``ingest``;
3. ``fold_into_service`` — the batch is servable once this returns;
4. top-K reads for a sample of the just-folded users and a few random
   users.

Rounds continue until ``--seconds`` have passed *and* ``MIN_ROUNDS``
rounds are done, so the fold p90 always has at least seventeen rounds beyond it.

Output check (every ``CHECK_EVERY``-th round, outside the timings): the
reads must equal, bit for bit, a fresh ``RecommenderService`` built on
``fold_into_artifact`` of the same state and the pre-fold artifact.
"""

from __future__ import annotations

import argparse
import time
from contextlib import nullcontext

import numpy as np

from common import vm_hwm_mb, write_json
from inputs import EventStream

MIN_ROUNDS = 170
CHECK_EVERY = 20
FOLDED_READS = 12
RANDOM_READS = 6
K = 10
CACHE_SIZE = 1024  # the serve CLI default


def read_mismatches(reads: dict, reference) -> list[int]:
    """Users whose served ``(items, scores)`` differ from ``reference``."""
    bad = []
    for user, (items, scores) in reads.items():
        ref_items, ref_scores = reference.recommend(user, K)
        if not (np.array_equal(items, ref_items) and np.array_equal(scores, ref_scores)):
            bad.append(user)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve import RecommenderService
    from repro.stream import StreamState, fold_into_artifact, fold_into_service

    tracer = None
    if args.trace:
        from layers import install_kernels, install_service, install_stream
        from tracing import Tracer

        tracer = Tracer()
        install_service(tracer)
        install_stream(tracer)
        install_kernels(tracer)
    service = RecommenderService(args.artifact, cache_size=CACHE_SIZE)
    service.recommend(0, K)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = np.random.default_rng([args.seed, 6])
    events = EventStream(args.seed)
    base_users, base_items = service.n_users, service.n_items
    fold_s, read_s, accepted, offered, rows = [], [], [], 0, []
    attempted = failed = 0
    start = time.perf_counter()
    while len(fold_s) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        batch = events.batch(service.n_users, service.n_items)
        before = service.artifact
        t0 = time.perf_counter()
        state = StreamState.from_artifact(before)
        report = state.ingest(batch)
        folded = fold_into_service(service, state)
        fold_s.append(time.perf_counter() - t0)
        accepted.append(report.accepted)
        offered += len(batch)
        rows.append((len(state.pending_users()), folded.n_users))

        users = folded.meta["stream"]["folded_users"]
        picks = rng.choice(users, size=min(FOLDED_READS, len(users)), replace=False).tolist()
        picks += rng.integers(0, service.n_users, RANDOM_READS).tolist()
        reads = {}
        for user in picks:
            t1 = time.perf_counter()
            reads[user] = service.recommend(user, K)
            read_s.append(time.perf_counter() - t1)
        attempted += 1 + len(picks)
        if len(fold_s) % CHECK_EVERY == 0:
            with tracer.suspended() if tracer else nullcontext():
                fresh = RecommenderService(fold_into_artifact(before, state), cache_size=0)
                failed += len(read_mismatches(reads, fresh))
    wall_s = time.perf_counter() - start

    write_json(args.out, {
        "fold_s": fold_s,
        "read_s": read_s,
        "accepted_per_round": accepted,
        "offered": offered,
        "rows": rows,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": vm_hwm_mb(),
        "stats": service.stats()["cache"],
        "shape": {
            "score_fn": service.artifact.score_fn, "users": base_users, "items": base_items,
            "final_users": service.n_users, "final_items": service.n_items,
            "cache_size": CACHE_SIZE, "rounds": len(fold_s), "events_per_round": len(batch),
            "reads_per_round": FOLDED_READS + RANDOM_READS, "check_every": CHECK_EVERY,
            "seed": args.seed,
        },
        "trace": tracer.snapshot() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
