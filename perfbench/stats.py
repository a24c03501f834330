"""Sample arithmetic shared by every workload (stdlib only).

Percentiles use linear interpolation between closest ranks, the same
rule as ``numpy.percentile``'s default, so the numbers agree with a
NumPy cross-check.  A percentile is *reported* only when the sample
supports it: at least :data:`MIN_BEYOND` samples must lie beyond it.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return beyond(n, q) >= MIN_BEYOND - 1e-9


def supported_percentile(samples, q: float) -> float | None:
    """``percentile(samples, q)`` if the sample supports it, else ``None``."""
    samples = list(samples)
    if not supports(len(samples), q):
        return None
    return percentile(samples, q)


def highest_supported(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> float | None:
    """The highest candidate percentile that ``n`` samples support."""
    for q in candidates:
        if supports(n, q):
            return q
    return None


def median(samples) -> float:
    return percentile(samples, 50.0)


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union its children cover.

    ``spans`` is an iterable of ``(span_id, parent_id, start, end)``.
    Children may overlap each other (threads, nested pools); the covered
    part is the length of the union of their intervals clipped to the
    parent, so overlapping children are not subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent_id, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    out = {}
    for span_id, _, start, end in spans:
        covered = union_length(children.get(span_id, ()), start, end)
        out[span_id] = max(0.0, (end - start) - covered)
    return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
