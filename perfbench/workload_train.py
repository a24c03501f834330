"""The ``train`` workload, run as its own process.

Generates the ``amazon-book`` preset at scale 2, trains TaxoRec and then
CML with their tuned configs for ``EPOCHS`` epochs (covering taxonomy
rebuilds at epochs 5 and 15 and the validation at epoch 10), and
evaluates both on the test split.  Prints ``READY`` once the data is
generated and split; with ``--setup-only`` it stops there.

Output check: test metrics from ``evaluate`` on the trained model must
equal ``evaluate_reference`` within ``EVAL_TOLERANCE``.  The reference
scores the model's frozen export (``artifact_from_model``) one user at a
time, so the check also covers export parity; scoring the live model one
user at a time would cost TaxoRec's whole aggregation per user.
"""

from __future__ import annotations

import argparse
import time
from contextlib import nullcontext

from common import vm_hwm_mb, write_json

PRESET, SCALE = "amazon-book", 2.0
MODELS = ("TaxoRec", "CML")
EPOCHS = 16
EVAL_TOLERANCE = 1e-10
METRICS = ("recall_at_10", "recall_at_20", "ndcg_at_10", "ndcg_at_20")


def eval_mismatches(result, reference, tolerance: float = EVAL_TOLERANCE) -> list[str]:
    """Metric names on which ``result`` and ``reference`` disagree."""
    return [
        name for name in METRICS
        if not abs(getattr(result, name) - getattr(reference, name)) <= tolerance
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    from repro import create_model, load_preset, temporal_split

    if args.trace:
        from layers import install_kernels, install_train
        from tracing import Tracer

        tracer = Tracer()
        install_train(tracer)
        install_kernels(tracer)
    span = tracer.span if tracer else (lambda _name: nullcontext())
    with span("data.generate"):
        split = temporal_split(load_preset(PRESET, scale=SCALE, seed=args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import repro.eval
    from repro.models.defaults import tuned_config
    from repro.serve import artifact_from_model
    from repro.train import Callback, Trainer
    from repro.train.callbacks import default_callbacks

    class EpochClock(Callback):
        """Wall time of each epoch, from before the model's epoch hook
        (taxonomy rebuild) to after validation: first in the stack."""

        def __init__(self):
            self.times: list[float] = []

        def on_epoch_begin(self, trainer, epoch):
            self._start = time.perf_counter()

        def on_epoch_end(self, trainer, epoch, record):
            self.times.append(time.perf_counter() - self._start)

    class StepClock(Callback):
        """Wall time of each training step (sample, loss, backward,
        optimizer step), after the epoch hooks: last in the stack."""

        def __init__(self):
            self.times: list[float] = []

        def on_epoch_begin(self, trainer, epoch):
            self._last = time.perf_counter()

        def on_batch_end(self, trainer, epoch, users, loss):
            now = time.perf_counter()
            self.times.append(now - self._last)
            self._last = now

    models, attempted, failed = {}, 0, 0
    for name in MODELS:
        config = tuned_config(name, PRESET, epochs=EPOCHS, seed=args.seed)
        model = create_model(name, split.train, config)
        clock, steps = EpochClock(), StepClock()
        trainer = Trainer(model, split=split,
                          callbacks=[clock, *default_callbacks(config), steps])
        start = time.perf_counter()
        trainer.fit()
        fit_s = time.perf_counter() - start
        # Looked up on the package, where the traced run's wrapper sits.
        result = repro.eval.evaluate(model, split, on="test")
        with tracer.suspended() if tracer else nullcontext():
            frozen = artifact_from_model(model).scorer()
            reference = repro.eval.evaluate_reference(frozen, split, on="test")
        mismatched = eval_mismatches(result, reference)
        attempted += 1
        failed += bool(mismatched)
        models[name] = {
            "fit_s": fit_s,
            "epoch_s": clock.times,
            "step_s": steps.times,
            "ndcg_at_10": result.ndcg_at_10,
            "recall_at_20": result.recall_at_20,
            "triplets": len(trainer.sampler.users) * len(clock.times),
            "mismatched": mismatched,
        }
    write_json(args.out, {
        "models": models,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": vm_hwm_mb(),
        "shape": {
            "preset": PRESET, "scale": SCALE, "users": split.train.n_users,
            "items": split.train.n_items, "train_interactions": split.train.n_interactions,
            "epochs": EPOCHS, "models": list(MODELS), "seed": args.seed,
        },
        "trace": tracer.snapshot() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
