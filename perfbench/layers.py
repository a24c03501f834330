"""Where the traced run attaches to the program: one installer per layer.

Each installer replaces public functions or methods of ``repro`` with
:class:`~tracing.Tracer` wrappers.  Span names are the per-layer metric
names without their ``_s`` suffix.  Nothing here changes what the
wrapped call computes; the wrappers only time it and count.
"""

from __future__ import annotations

import functools

import numpy as np

from tracing import Tracer


def install_kernels(tracer: Tracer) -> None:
    """``backend.kernel_s`` / ``backend.kernel_calls`` over the active
    backend's public kernels."""
    from repro.backend import get_backend

    tracer.count_kernels(type(get_backend()))


def _touched_rows(optimizer, tracer: Tracer) -> None:
    """Count embedding rows with a nonzero gradient against rows stepped."""
    for p in optimizer.params:
        grad = p.grad
        if grad is None or np.ndim(grad) != 2:
            continue
        tracer.count("optim.touched_rows", float(np.count_nonzero(np.any(grad != 0, axis=1))))
        tracer.count("optim.stepped_rows", float(grad.shape[0]))


def _traced_step(step, tracer: Tracer):
    @functools.wraps(step)
    def traced_step(optimizer):
        _touched_rows(optimizer, tracer)
        with tracer.span("optim.step"):
            return step(optimizer)

    return traced_step


def install_train(tracer: Tracer) -> None:
    import repro.eval
    from repro.autodiff import Tensor
    from repro.data import TripletSampler
    from repro.models.cml import CML
    from repro.models.taxorec import TaxoRec
    from repro.optim import SGD, Adam, RiemannianSGD

    tracer.patch(TripletSampler, "epoch", "data.sample", iterate=True)
    for model_cls in (TaxoRec, CML):
        tracer.patch(model_cls, "loss_batch", "models.loss_batch",
                     after=lambda *_: tracer.count("train.batches"))
    tracer.patch(Tensor, "backward", "autodiff.backward")
    for optim_cls in (SGD, Adam, RiemannianSGD):
        optim_cls.step = _traced_step(optim_cls.step, tracer)
    tracer.patch(TaxoRec, "rebuild_taxonomy", "taxonomy.rebuild",
                 after=lambda *_: tracer.count("taxonomy.rebuild_count"))
    # The trainer's validation hook looks ``evaluate`` up on the package
    # at call time, so patching the package attribute covers it.
    tracer.patch(repro.eval, "evaluate", "eval.evaluate")


def install_service(tracer: Tracer) -> None:
    """Service, scoring, top-K, artifact load and retrieval build."""
    import repro.serve.service as service_mod
    from repro.serve.scoring import FrozenScorer

    tracer.patch(service_mod.RecommenderService, "recommend", "serve.service.recommend")
    tracer.patch(service_mod.RecommenderService, "swap_artifact", "serve.service.swap")
    tracer.patch(FrozenScorer, "score_users", "serve.scoring.score_users")
    tracer.patch(service_mod, "rank_topk", "eval.rank_topk")
    tracer.patch(service_mod, "load_artifact", "serve.artifact.load")
    tracer.patch(service_mod, "build_retrieval_index", "retrieval.build")


def install_http(tracer: Tracer) -> None:
    """HTTP handlers (single process, worker and router) and the router hop."""
    import repro.serve.http as http_mod
    import repro.serve.router as router_mod

    tracer.patch(http_mod._Handler, "do_GET", "serve.http.handle")
    tracer.patch(router_mod._RouterHandler, "do_GET", "serve.http.handle")
    tracer.patch(router_mod.RouterHTTPServer, "forward", "serve.router.forward")


def install_stream(tracer: Tracer) -> None:
    import repro.stream.append as append_mod
    from repro.stream import StreamState

    tracer.patch(StreamState, "ingest", "stream.ingest")
    tracer.patch(append_mod, "fold_in_user", "stream.solve")
    tracer.patch(append_mod, "fold_in_item", "stream.solve")
    tracer.patch(append_mod, "fold_into_artifact", "stream.fold_artifact")
    tracer.patch(append_mod, "validate_model_artifact", "serve.artifact.validate")
