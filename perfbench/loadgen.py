"""Open-loop load generation with due-time accounting.

Requests are due on a fixed schedule (``i / rate`` seconds after the
phase starts) whether or not the system keeps up.  ``connections``
sender threads each hold one connection and take the next due request
when they are free, so a stalled request delays every request queued
behind it; each request's latency is measured from when it was *due*,
not from when it was sent, so that delay is charged to the system.

The generator's own lateness is measured apart from that: a request's
``lag`` is how long after ``max(due, connection free)`` it was actually
sent.  A large lag means the generator, not the system, fell behind.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from stats import highest_supported, percentile, supported_percentile

LATENCY_LIMIT_S = 0.050
ABORT_BEHIND_S = 1.0  # stop offering once the schedule is this far ahead of sending


@dataclass
class Record:
    index: int
    due: float
    free_at: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its reply."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent late, beyond waiting for a free connection."""
        return self.sent - max(self.due, self.free_at)


def run_open_loop(send, open_connection, keys, rate: float, duration: float,
                  connections: int, clock=time.perf_counter) -> tuple[list[Record], float]:
    """Offer ``rate * duration`` requests on schedule; return records and start time.

    ``open_connection()`` makes one connection per sender; ``send(conn,
    key)`` performs one request and returns whether it succeeded (it may
    return a replacement connection as ``(ok, conn)``).
    """
    n = max(1, int(round(rate * duration)))
    lock = threading.Lock()
    cursor = [0]
    aborted = threading.Event()
    records: list[Record] = []
    start = clock() + 0.05

    def sender() -> None:
        conn = open_connection()
        free_at = start
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n or aborted.is_set():
                    return
                due = start + i / rate
                if clock() - due > ABORT_BEHIND_S:
                    aborted.set()
                    return
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                result = send(conn, keys[i % len(keys)])
                if isinstance(result, tuple):
                    ok, conn = result
                else:
                    ok = result
                done = clock()
                record = Record(i, due, free_at, sent, done, bool(ok))
                with lock:
                    records.append(record)
                free_at = done
        finally:
            close = getattr(conn, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator threads did not finish")
    records.sort(key=lambda r: r.index)
    return records, start, aborted.is_set()


def run_closed_loop(send, open_connection, keys, duration: float,
                    connections: int, clock=time.perf_counter) -> tuple[list[float], int, float]:
    """Each sender fires its next request as soon as the last one returns.

    Senders stop after ``duration`` or when ``keys`` run out.  Returns
    the completion times of successful requests, the number of failed
    ones and the start time: the system's saturation throughput with
    ``connections`` requests in flight.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[float] = []
    failed = [0]
    start = clock()
    stop = start + duration

    def sender() -> None:
        conn = open_connection()
        try:
            while clock() < stop:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(keys):
                    return
                result = send(conn, keys[i])
                ok, conn = result if isinstance(result, tuple) else (result, conn)
                finished = clock()
                with lock:
                    if ok:
                        done.append(finished)
                    else:
                        failed[0] += 1
        finally:
            close = getattr(conn, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator threads did not finish")
    return done, failed[0], start


def lru_replay(history, n: int) -> list:
    """The last ``n`` distinct keys of ``history``, in order of last use.

    Requesting them in this order leaves an LRU cache of at most ``n``
    entries in the state ``history`` would have left it in, whatever it
    held before, at the cost of ``n`` requests instead of ``len(history)``.
    """
    last = {key: i for i, key in enumerate(history)}
    return sorted(last, key=last.__getitem__)[-n:]


def window_rates(times: list[float], start: float, duration: float, window: float) -> list[float]:
    """Completion rate in each whole ``window`` after ``start``, measured
    between the first and last completion inside the window."""
    slots: list[list[float]] = [[] for _ in range(int(duration // window))]
    for t in times:
        slot = int((t - start) // window)
        if 0 <= slot < len(slots):
            slots[slot].append(t)
    return [(len(s) - 1) / (max(s) - min(s)) for s in slots if len(s) > 1 and max(s) > min(s)]


def summarize(records: list[Record], rate: float, aborted: bool = False) -> dict:
    """Latency percentiles from due time, generator lag and backlog growth.

    ``tail_ms`` is the highest percentile (at most p99) with at least
    ten samples beyond it; ``tail_q`` says which.
    """
    latencies = [r.latency for r in records]
    delays = [r.sent - r.due for r in records]
    quarter = max(1, len(records) // 4)
    first = percentile(delays[:quarter], 50)
    last = percentile(delays[-quarter:], 50)
    tail_q = highest_supported(len(latencies), (99.0, 95.0, 90.0, 75.0, 50.0))
    return {
        "offered_rps": rate,
        "aborted": aborted,
        "requests": len(records),
        "failed": sum(not r.ok for r in records),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "tail_q": tail_q,
        "tail_ms": None if tail_q is None else percentile(latencies, tail_q) * 1e3,
        "p99_ms": None if supported_percentile(latencies, 99.0) is None
        else percentile(latencies, 99.0) * 1e3,
        "lag_p99_ms": percentile([r.lag for r in records], 99.0) * 1e3,
        "backlog_growth_ms": (last - first) * 1e3,
    }


def meets_limit(summary: dict) -> bool:
    """Whether a phase met the latency limit with no failures and no growing backlog."""
    return (
        not summary["aborted"]
        and summary["failed"] == 0
        and summary["tail_ms"] is not None
        and summary["tail_ms"] <= LATENCY_LIMIT_S * 1e3
        and summary["backlog_growth_ms"] <= LATENCY_LIMIT_S * 1e3 / 2
    )
