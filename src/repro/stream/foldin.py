"""Fold-in solvers: new-user/new-item embeddings against frozen arrays.

Between full retrains, a new user is characterised only by the items they
interacted with.  Fold-in solves for an embedding that scores those items
highly *under the frozen score-fn*, holding every existing embedding
fixed — the production pattern motivated by "Scalable Hyperbolic
Recommender Systems" (ASOS, PAPERS.md).  Per score-fn family:

* **Metric family** (``neg_sq_euclid``, ``neg_sq_lorentz``) — the
  least-squares minimiser of Σᵢ ‖u − vᵢ‖² over the evidence items is
  their mean.  On the hyperboloid we solve in the tangent space at the
  origin: ``u = expmap0(mean(logmap0(vᵢ)))``, the same maps the models
  train with (routed through :func:`~repro.backend.get_backend`).
* **Inner-product family** (``dot``, ``dot_bias``, ``dot_aspect``) —
  ridge least-squares against target score 1 per evidence item:
  ``(VᵀV + λI) u = Vᵀ1``, where ``dot_bias`` shifts the targets by the
  frozen item biases and ``dot_aspect`` solves the concatenated
  ``[u | u_aspect]`` system against ``[v | w·v_aspect]``.
* **Two-channel family** (``two_channel_lorentz``, ``two_channel_euclid``,
  TaxoRec) — per-channel tangent-space mean; a new user's ``alpha``
  defaults to the median of the frozen alphas (an existing user keeps
  their own via the prior).
* ``dense`` artifacts carry no embeddings to solve for —
  :class:`FoldInUnsupported`, mirroring ``retrieval.ReductionUnsupported``.

**Prior blending.**  For an *existing* user, the frozen embedding is a
prior weighted by the number of baseline interactions it was trained on:
the tangent solve becomes a weighted mean ``(n₀·z₀ + Σ zᵢ)/(n₀ + n)``
and the ridge solve is centred on the prior.  With **zero new evidence
the prior is returned verbatim** (a copy) — so folding a user whose
events all duplicate training interactions is an exact no-op, the
contract ``tests/test_stream_foldin.py`` locks at 1e-10.

Every solver is routed through the backend seam; the pure-numpy
``*_reference`` twins replay the same expressions for the differential
suite and are exempt from the backend-discipline lint by name.
"""

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from ..backend.constants import FOLDIN_RIDGE, MAX_TANH_ARG, MIN_NORM

__all__ = [
    "FoldInUnsupported",
    "foldable_score_fns",
    "fold_in_user",
    "fold_in_user_reference",
    "fold_in_item",
    "origin_rows",
]

_METRIC = ("neg_sq_euclid", "neg_sq_lorentz")
_DOT = ("dot", "dot_bias", "dot_aspect")
_TWO_CHANNEL = ("two_channel_lorentz", "two_channel_euclid")

#: Default ridge regulariser for the inner-product family solves.
RIDGE = FOLDIN_RIDGE


class FoldInUnsupported(Exception):
    """The score-fn has no per-user embedding to solve for.

    Carries the score-fn id and a human-readable reason; callers catch
    this and fall back to a full retrain instead of guessing.
    """

    def __init__(self, score_fn: str, reason: str):
        self.score_fn = score_fn
        self.reason = reason
        super().__init__(f"score_fn {score_fn!r} cannot be folded into: {reason}")


def foldable_score_fns() -> tuple[str, ...]:
    """Score-fn ids :func:`fold_in_user` / :func:`fold_in_item` accept."""
    return _METRIC + _DOT + _TWO_CHANNEL


def _require_foldable(score_fn: str) -> None:
    if score_fn not in foldable_score_fns():
        raise FoldInUnsupported(
            score_fn,
            "no per-user embedding (the artifact is a dense score matrix)"
            if score_fn == "dense"
            else f"not a registered fold-in family {sorted(foldable_score_fns())}",
        )


# ----------------------------------------------------------------------
# Family primitives
# ----------------------------------------------------------------------
def _tangent_mean(rows: np.ndarray, lorentz: bool, prior: np.ndarray | None, prior_weight: float) -> np.ndarray:
    """Weighted tangent-space mean, projected back with the exp-map."""
    xp = get_backend()
    logs = xp.lorentz_logmap0(rows) if lorentz else rows
    total = logs.sum(axis=0)
    weight = float(len(rows))
    if prior is not None and prior_weight > 0.0:
        z0 = xp.lorentz_logmap0(prior[None, :])[0] if lorentz else prior
        total = total + prior_weight * z0
        weight += prior_weight
    z = total / weight
    return xp.lorentz_expmap0(z[None, :])[0] if lorentz else z


def _tangent_mean_reference(rows, lorentz, prior, prior_weight):
    """Pure-numpy twin of :func:`_tangent_mean` (differential suite)."""
    if lorentz:
        spatial = rows[..., 1:]
        sp_norm = np.maximum(np.linalg.norm(spatial, axis=-1, keepdims=True), MIN_NORM)
        logs = np.arcsinh(sp_norm) * spatial / sp_norm
    else:
        logs = rows
    total = logs.sum(axis=0)
    weight = float(len(rows))
    if prior is not None and prior_weight > 0.0:
        if lorentz:
            sp = prior[1:]
            n0 = max(np.linalg.norm(sp), MIN_NORM)
            z0 = np.arcsinh(n0) * sp / n0
        else:
            z0 = prior
        total = total + prior_weight * z0
        weight += prior_weight
    z = total / weight
    if not lorentz:
        return z
    # replay lorentz_expmap0_np expression-for-expression (1-row batch)
    norm = np.sqrt(np.sum(z * z, axis=-1, keepdims=True) + MIN_NORM)
    clipped = np.minimum(norm, MAX_TANH_ARG)
    time = np.cosh(clipped)
    spatial = np.sinh(clipped) * z / norm
    return np.concatenate([time, spatial], axis=-1)


def _ridge_solve(design: np.ndarray, targets: np.ndarray, prior: np.ndarray | None, prior_weight: float, ridge: float) -> np.ndarray:
    """``(XᵀX + (λ + n₀)I) q = Xᵀt + n₀·q₀`` — prior-centred ridge LS."""
    xp = get_backend()
    gram = xp.matmul(design.T, design)
    rhs = xp.matmul(design.T, targets)
    reg = ridge + (prior_weight if prior is not None else 0.0)
    gram = gram + reg * np.eye(design.shape[1])
    if prior is not None and prior_weight > 0.0:
        rhs = rhs + prior_weight * prior
    return np.linalg.solve(gram, rhs)


def _ridge_solve_reference(design, targets, prior, prior_weight, ridge):
    """Pure-numpy twin of :func:`_ridge_solve`."""
    gram = design.T @ design
    rhs = design.T @ targets
    reg = ridge + (prior_weight if prior is not None else 0.0)
    gram = gram + reg * np.eye(design.shape[1])
    if prior is not None and prior_weight > 0.0:
        rhs = rhs + prior_weight * prior
    return np.linalg.solve(gram, rhs)


def _alpha_default(arrays: dict) -> float:
    """New-user alpha: the median of the frozen per-user alphas."""
    alpha = np.asarray(arrays["alpha"], dtype=np.float64)
    return float(np.median(alpha)) if alpha.size else 1.0


def _user_alpha(arrays: dict, prior: dict | None, default_alpha: float | None) -> float:
    """A folded user's alpha: their own when existing, else the default."""
    if prior is not None:
        return float(prior["alpha"])
    return _alpha_default(arrays) if default_alpha is None else float(default_alpha)


# ----------------------------------------------------------------------
# User fold-in
# ----------------------------------------------------------------------
def fold_in_user(
    score_fn: str,
    arrays: dict,
    item_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
    default_alpha: float | None = None,
) -> dict:
    """Solve one user's frozen-array rows from their evidence items.

    Parameters
    ----------
    score_fn, arrays:
        The frozen payload (``repro.model/v1`` semantics).
    item_ids:
        Sorted evidence item ids; must index the frozen item arrays.
    prior:
        The user's existing rows (``{"user": row}`` /
        ``{"user_ir": ..., "user_tg": ..., "alpha": ...}``) when folding
        an existing user; ``None`` for a brand-new one.
    prior_weight:
        Evidence weight of the prior — the user's baseline interaction
        count.  With ``item_ids`` empty and a prior, the prior is
        returned verbatim (copies).
    default_alpha:
        A new two-channel user's ``alpha``; ``None`` takes the median of
        ``arrays["alpha"]``.  Callers folding many users compute it once.

    Returns a dict of user-side array names → new rows, e.g.
    ``{"user": (d,)}`` or ``{"user_ir": ..., "user_tg": ..., "alpha": float}``.
    """
    _require_foldable(score_fn)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        if prior is None:
            raise ValueError("fold_in_user needs evidence items or a prior")
        return {key: np.copy(value) if isinstance(value, np.ndarray) else value for key, value in prior.items()}

    if score_fn in _METRIC:
        rows = arrays["item"][item_ids]
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        u = _tangent_mean(rows, score_fn == "neg_sq_lorentz", u0, prior_weight)
        return {"user": u}

    if score_fn == "dot":
        design = arrays["item"][item_ids]
        targets = np.ones(len(item_ids))
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {"user": _ridge_solve(design, targets, u0, prior_weight, ridge)}

    if score_fn == "dot_bias":
        design = arrays["item"][item_ids]
        targets = 1.0 - arrays["item_bias"][item_ids]
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {"user": _ridge_solve(design, targets, u0, prior_weight, ridge)}

    if score_fn == "dot_aspect":
        weight = float(arrays["aspect_weight"])
        design = np.concatenate(
            [arrays["item"][item_ids], weight * arrays["item_aspect"][item_ids]], axis=1
        )
        targets = np.ones(len(item_ids))
        d = arrays["item"].shape[1]
        q0 = None
        if prior is not None:
            q0 = np.concatenate(
                [np.asarray(prior["user"], np.float64), np.asarray(prior["user_aspect"], np.float64)]
            )
        q = _ridge_solve(design, targets, q0, prior_weight, ridge)
        return {"user": q[:d], "user_aspect": q[d:]}

    # two-channel family (TaxoRec)
    lorentz = score_fn == "two_channel_lorentz"
    ir0 = None if prior is None else np.asarray(prior["user_ir"], dtype=np.float64)
    tg0 = None if prior is None else np.asarray(prior["user_tg"], dtype=np.float64)
    out = {
        "user_ir": _tangent_mean(arrays["item_ir"][item_ids], lorentz, ir0, prior_weight),
        "user_tg": _tangent_mean(arrays["item_tg"][item_ids], lorentz, tg0, prior_weight),
        "alpha": _user_alpha(arrays, prior, default_alpha),
    }
    return out


def fold_in_user_reference(
    score_fn: str,
    arrays: dict,
    item_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
    default_alpha: float | None = None,
) -> dict:
    """Pure-numpy exact twin of :func:`fold_in_user` (never backend-routed)."""
    _require_foldable(score_fn)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if item_ids.size == 0:
        if prior is None:
            raise ValueError("fold_in_user needs evidence items or a prior")
        return {key: np.copy(value) if isinstance(value, np.ndarray) else value for key, value in prior.items()}

    if score_fn in _METRIC:
        rows = arrays["item"][item_ids]
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {"user": _tangent_mean_reference(rows, score_fn == "neg_sq_lorentz", u0, prior_weight)}

    if score_fn == "dot":
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {
            "user": _ridge_solve_reference(
                arrays["item"][item_ids], np.ones(len(item_ids)), u0, prior_weight, ridge
            )
        }

    if score_fn == "dot_bias":
        u0 = None if prior is None else np.asarray(prior["user"], dtype=np.float64)
        return {
            "user": _ridge_solve_reference(
                arrays["item"][item_ids],
                1.0 - arrays["item_bias"][item_ids],
                u0,
                prior_weight,
                ridge,
            )
        }

    if score_fn == "dot_aspect":
        weight = float(arrays["aspect_weight"])
        design = np.concatenate(
            [arrays["item"][item_ids], weight * arrays["item_aspect"][item_ids]], axis=1
        )
        d = arrays["item"].shape[1]
        q0 = None
        if prior is not None:
            q0 = np.concatenate(
                [np.asarray(prior["user"], np.float64), np.asarray(prior["user_aspect"], np.float64)]
            )
        q = _ridge_solve_reference(design, np.ones(len(item_ids)), q0, prior_weight, ridge)
        return {"user": q[:d], "user_aspect": q[d:]}

    lorentz = score_fn == "two_channel_lorentz"
    ir0 = None if prior is None else np.asarray(prior["user_ir"], dtype=np.float64)
    tg0 = None if prior is None else np.asarray(prior["user_tg"], dtype=np.float64)
    return {
        "user_ir": _tangent_mean_reference(arrays["item_ir"][item_ids], lorentz, ir0, prior_weight),
        "user_tg": _tangent_mean_reference(arrays["item_tg"][item_ids], lorentz, tg0, prior_weight),
        "alpha": _user_alpha(arrays, prior, default_alpha),
    }


# ----------------------------------------------------------------------
# Item fold-in (symmetric: evidence is the users who touched the item)
# ----------------------------------------------------------------------
def fold_in_item(
    score_fn: str,
    arrays: dict,
    user_ids: np.ndarray,
    prior: dict | None = None,
    prior_weight: float = 0.0,
    ridge: float = RIDGE,
) -> dict:
    """Solve one item's frozen-array rows from the users who touched it.

    Mirrors :func:`fold_in_user`; ``dot_bias`` jointly solves the item
    vector and its bias via the augmented design ``[U | 1]``.  Returns a
    dict of item-side array names → new rows.
    """
    _require_foldable(score_fn)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    if user_ids.size == 0:
        if prior is None:
            return origin_rows(score_fn, arrays, side="item")
        return {key: np.copy(value) if isinstance(value, np.ndarray) else value for key, value in prior.items()}

    if score_fn in _METRIC:
        rows = arrays["user"][user_ids]
        v0 = None if prior is None else np.asarray(prior["item"], dtype=np.float64)
        return {"item": _tangent_mean(rows, score_fn == "neg_sq_lorentz", v0, prior_weight)}

    if score_fn == "dot":
        u_rows = arrays["user"][user_ids]
        v0 = None if prior is None else np.asarray(prior["item"], dtype=np.float64)
        return {"item": _ridge_solve(u_rows, np.ones(len(user_ids)), v0, prior_weight, ridge)}

    if score_fn == "dot_bias":
        u_rows = arrays["user"][user_ids]
        design = np.concatenate([u_rows, np.ones((len(user_ids), 1))], axis=1)
        x0 = None
        if prior is not None:
            x0 = np.concatenate([np.asarray(prior["item"], np.float64), [float(prior["item_bias"])]])
        x = _ridge_solve(design, np.ones(len(user_ids)), x0, prior_weight, ridge)
        return {"item": x[:-1], "item_bias": float(x[-1])}

    if score_fn == "dot_aspect":
        weight = float(arrays["aspect_weight"])
        design = np.concatenate(
            [arrays["user"][user_ids], weight * arrays["user_aspect"][user_ids]], axis=1
        )
        d = arrays["user"].shape[1]
        x0 = None
        if prior is not None:
            x0 = np.concatenate(
                [np.asarray(prior["item"], np.float64), np.asarray(prior["item_aspect"], np.float64)]
            )
        x = _ridge_solve(design, np.ones(len(user_ids)), x0, prior_weight, ridge)
        return {"item": x[:d], "item_aspect": x[d:]}

    lorentz = score_fn == "two_channel_lorentz"
    ir0 = None if prior is None else np.asarray(prior["item_ir"], dtype=np.float64)
    tg0 = None if prior is None else np.asarray(prior["item_tg"], dtype=np.float64)
    return {
        "item_ir": _tangent_mean(arrays["user_ir"][user_ids], lorentz, ir0, prior_weight),
        "item_tg": _tangent_mean(arrays["user_tg"][user_ids], lorentz, tg0, prior_weight),
    }


# ----------------------------------------------------------------------
def origin_rows(score_fn: str, arrays: dict, side: str) -> dict:
    """Evidence-free placeholder rows (the manifold origin).

    Used for id-space gaps: appending item ``n+5`` forces rows for
    ``n…n+4`` to exist even without events.  Lorentz origin is
    ``[1, 0, …]``; Euclidean is zeros; biases are 0; a placeholder
    user's alpha is the frozen median.
    """
    _require_foldable(score_fn)

    def origin_like(template: np.ndarray) -> np.ndarray:
        row = np.zeros(template.shape[1])
        if score_fn in ("neg_sq_lorentz", "two_channel_lorentz"):
            row[0] = 1.0
        return row

    if score_fn in _TWO_CHANNEL:
        ir, tg = (("user_ir", "user_tg") if side == "user" else ("item_ir", "item_tg"))
        out = {ir: origin_like(arrays[ir]), tg: origin_like(arrays[tg])}
        if side == "user":
            out["alpha"] = _alpha_default(arrays)
        return out
    key = "user" if side == "user" else "item"
    out = {key: origin_like(arrays[key])}
    if score_fn == "dot_bias" and side == "item":
        out["item_bias"] = 0.0
    if score_fn == "dot_aspect":
        aspect = "user_aspect" if side == "user" else "item_aspect"
        out[aspect] = origin_like(arrays[aspect])
    return out
