"""In-memory span and count recorder, and the wrappers that feed it.

The benchmark treats the program as a black box: it never edits the
program's source.  In a traced run it replaces public functions and
methods of the program with thin wrappers that record a span around
each call (name, start, end, parent, request id) and bump counters.
Spans stay in memory and are written out once, when the process ends
(:meth:`Tracer.dump`); :func:`layer_metrics` turns one or more dumps
into per-layer self times and counts.

Backend kernels are called far too often for one span each, so
:meth:`Tracer.count_kernels` keeps only their busy time and call count.
Only the outermost kernel call on a thread is counted, so a kernel that
calls another kernel is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from stats import self_times

KERNEL_TIME = "backend.kernel_s"
KERNEL_CALLS = "backend.kernel_calls"


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child starts clean)."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def suspended(self):
        """Record nothing inside (output checks are not part of the workload)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = self._local.request if stack else span_id
        if not stack:
            self._local.request = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((name, start, end, span_id, parent, request))

    def count(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] += value

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap_iter(self, fn, name: str):
        """A generator function whose every ``next()`` is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, iterate: bool = False) -> None:
        original = getattr(owner, attr)
        if iterate:
            setattr(owner, attr, self.wrap_iter(original, name))
        else:
            setattr(owner, attr, self.wrap(original, name, after))

    def count_kernels(self, backend_cls) -> None:
        """Count busy time and calls of every public method of a backend
        class (elementwise primitives are static methods; keep them so)."""
        for kernel in dir(backend_cls):
            if kernel.startswith("_") or not callable(getattr(backend_cls, kernel)):
                continue
            raw = inspect.getattr_static(backend_cls, kernel)
            if isinstance(raw, staticmethod):
                setattr(backend_cls, kernel, staticmethod(self._kernel_counter(raw.__func__)))
            else:
                setattr(backend_cls, kernel, self._kernel_counter(raw))

    def _kernel_counter(self, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or getattr(local, "in_kernel", False):
                return fn(*args, **kwargs)
            local.in_kernel = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.in_kernel = False
                with self._lock:
                    self.counts[KERNEL_TIME] += elapsed
                    self.counts[KERNEL_CALLS] += 1

        return wrapper

    # -- output ------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
            }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def load_dumps(paths) -> list[dict]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def in_windows(t: float, windows) -> bool:
    """Whether ``t`` lies in any ``[lo, hi]`` of ``windows`` (``None``: all time)."""
    return windows is None or any(lo <= t <= hi for lo, hi in windows)


def layer_metrics(dumps, windows=None) -> dict[str, float]:
    """Summed self seconds per span name (``<name>_s``), span counts
    (``<name>.calls``) and counters, over every dump.

    ``windows`` keeps only spans that start inside one of its ``[lo, hi]``
    intervals (``time.perf_counter`` is system-wide monotonic on Linux,
    so client and server clocks agree).
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        selfs = self_times((s[3], s[4], s[1], s[2]) for s in spans)
        for name, start, _end, span_id, _parent, _request in spans:
            if not in_windows(start, windows):
                continue
            busy[name] += selfs[span_id]
            calls[name] += 1
        for name, value in dump["counts"].items():
            counts[name] += value
    out = {f"{name}_s": value for name, value in busy.items()}
    out.update({f"{name}.calls": value for name, value in calls.items()})
    out.update(counts)
    return out


def span_durations(dumps, name: str, windows=None) -> list[float]:
    """Wall durations of every span called ``name`` (optionally windowed)."""
    out = []
    for dump in dumps:
        for span_name, start, end, *_ in dump["spans"]:
            if span_name != name:
                continue
            if not in_windows(start, windows):
                continue
            out.append(end - start)
    return out
