"""The two serving workloads: ``repro serve`` as a black box over HTTP.

Both start the program with its own CLI (``python -m repro serve``; the
traced run uses :mod:`serve_launch` instead) and drive ``/recommend``
(k=10) from this process in an open loop with ``CONNECTIONS`` keep-alive
connections.  Each run:

1. starts the server ``setup_repeats`` times, timing process start to
   the first ``/health`` reply (``setup_s`` is their median) and keeps
   the last one;
2. checks the first ``PARITY_USERS`` users of the request stream over
   the wire against a local ``RecommenderService`` on the same
   artifact, bit for bit (``repro.bench.load.check_parity``);
3. warms up, then runs ``ROUNDS`` rounds, each an open-loop segment at
   the reference rate followed by a closed-loop burst with
   ``BURST_CONNECTIONS`` request in flight.  ``p50_ms`` is the p50 of every
   reference request, ``tail_ms`` the median of the rounds' p90s and
   ``throughput_per_s`` the median of the bursts' completion rates, so
   a slow spell of the host that covers a few rounds moves none of them;
4. probes open-loop rates at ``PROBE_SHARES`` of that throughput for
   ``max_rps``: the highest rate whose tail latency stays within 50 ms
   with no failures and no growing backlog.

Every core runs a lowest-priority spinner meanwhile (:func:`busy_cores`).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import inputs
from common import ROOT, child_env, descendants, stop_process, tree_peak_rss_mb
from loadgen import (
    LATENCY_LIMIT_S, lru_replay, meets_limit, run_closed_loop, run_open_loop, summarize,
    window_rates,
)
from stats import median

CONNECTIONS = 2
PARITY_USERS = 32
K = 10
WARMUP_S = 1.0
REF_SHARE = 0.6  # of --seconds, but never fewer than MIN_REF_REQUESTS requests
ROUNDS = 8
BURST_S = 0.75  # closed-loop burst per round
BURST_CONNECTIONS = 1  # two senders and the server processes would share two cores
BURST_KEYS = 20_000  # more than a burst sends; the unsent ones are given back
CACHE_SIZE = 1024  # the CLI's default LRU size, per service
WARM_STREAM = 20_000  # Zipf draws after which the hot pool's hit ratio is steady
WARM_KEYS = 3 * CACHE_SIZE  # both shards' caches get more than CACHE_SIZE of them
PROBE_SHARES = (1.0, 1.5, 2.0)  # of the one-connection throughput
PROBE_S = 1.0
MIN_REF_REQUESTS = 1010  # p99 needs ten samples beyond it; p90 then has
                         # more than ten beyond it in each of the ROUNDS rounds
START_TIMEOUT_S = 120.0

WORKLOADS = {
    "serve_large_catalog": {
        "flags": [],
        "ref_rps": 60.0,
        "keys": "distinct",
    },
    "serve_hot_pool": {
        "flags": ["--workers", "1", "--shards", "2"],
        "ref_rps": 200.0,
        "keys": "zipf",
    },
}


class Server:
    """One ``repro serve`` process; ``address`` is known once it is up."""

    def __init__(self, artifact: Path, flags: list[str], trace_dir: Path | None):
        if trace_dir is None:
            program = ["-m", "repro", "serve"]
        else:
            program = [str(Path(__file__).with_name("serve_launch.py")), str(trace_dir)]
        cmd = [sys.executable, *program, str(artifact), "--port", "0", *flags]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.address = self._await_banner()
        self._await_health()
        self.setup_s = time.perf_counter() - self.started

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _await_banner(self) -> tuple[str, int]:
        deadline = self.started + START_TIMEOUT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server exited or stayed silent before announcing its port")
            if line.startswith("serving ") and " on http://" in line:
                host_port = line.split(" on http://", 1)[1].split()[0]
                host, port = host_port.rsplit(":", 1)
                return host, int(port)

    def _await_health(self) -> None:
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = get(self.address, "/health")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never answered /health")

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Stop the server; its pool stops its own workers, and any worker
        left behind (the server had to be killed) is killed here."""
        workers = descendants(self.proc.pid)
        stop_process(self.proc)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def get(address, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def parity_failures(address, reference, users) -> int:
    """Users whose served top-K differs from ``reference`` (or fails)."""
    from repro.bench.load import check_parity
    from repro.serve.errors import ServeError

    failures = 0
    for user in users:
        try:
            check_parity(address, reference, [int(user)], k=K)
        except ServeError:
            failures += 1
    return failures


def cache_counts(stats) -> tuple[int, int]:
    """Summed ``(hits, hits + misses)`` over every ``cache`` block in /stats."""
    hits = lookups = 0
    if isinstance(stats, dict):
        for key, value in stats.items():
            if key == "cache" and isinstance(value, dict) and "hits" in value:
                hits += value["hits"]
                lookups += value["hits"] + value["misses"]
            else:
                h, n = cache_counts(value)
                hits, lookups = hits + h, lookups + n
    elif isinstance(stats, list):
        for value in stats:
            h, n = cache_counts(value)
            hits, lookups = hits + h, lookups + n
    return hits, lookups


def _connection(address):
    return lambda: http.client.HTTPConnection(*address, timeout=30)


def _send(address):
    def send(conn, user):
        try:
            conn.request("GET", f"/recommend?user={user}&k={K}")
            response = conn.getresponse()
            body = response.read()
            return response.status == 200 and len(json.loads(body)["items"]) == K
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            conn.close()
            return False, http.client.HTTPConnection(*address, timeout=30)

    return send


class Keys:
    """Request keys for one run, consumed in order across phases.

    A Zipf run starts ``WARM_STREAM`` draws into its key stream.  ``warm``
    holds the requests that put the server's per-shard LRU caches where
    those draws would have left them, so the hit ratio is at its steady
    state from the first measured request instead of climbing through
    the run at a pace set by the host's speed.
    """

    def __init__(self, spec: str, seed: int, n_users: int):
        self.warm: list[int] = []
        if spec == "distinct":
            self.keys = inputs.distinct_users(seed, n_users)
        else:
            keys = inputs.zipf_users(seed, n_users, WARM_STREAM + 200_000)
            self.warm = lru_replay(keys[:WARM_STREAM], WARM_KEYS)
            self.keys = keys[WARM_STREAM:]
        self.pos = 0

    def take(self, n: int) -> list[int]:
        out = [self.keys[(self.pos + i) % len(self.keys)] for i in range(n)]
        self.pos += n
        return out

    def give_back(self, n: int) -> None:
        """Return the last ``n`` keys taken, unsent, to the stream."""
        self.pos -= n


def drive(address, keys: Keys, rate: float, seconds: float) -> tuple[dict, tuple[float, float], list]:
    n = max(1, int(round(rate * seconds)))
    records, start, aborted = run_open_loop(
        _send(address), _connection(address), keys.take(n), rate, seconds, CONNECTIONS,
    )
    return summarize(records, rate, aborted), (start, time.perf_counter()), records


def burst(address, keys: Keys) -> tuple[float | None, int, int]:
    """Closed-loop completion rate with ``BURST_CONNECTIONS`` in flight
    over ``BURST_S`` (``None`` if fewer than two requests completed)."""
    offered = keys.take(BURST_KEYS)
    done, failed, start = run_closed_loop(
        _send(address), _connection(address), offered, BURST_S, BURST_CONNECTIONS,
    )
    sent = len(done) + failed
    keys.give_back(len(offered) - sent)
    rates = window_rates(done, start, BURST_S, BURST_S)
    return (rates[0] if rates else None), sent, failed


def pooled(rounds: list[tuple[dict, list]], rate: float) -> dict:
    """One summary of every round's reference requests.

    Percentiles are over all the requests; ``p90_ms`` is the median of
    the rounds' p90s; backlog growth is the worst round's, because each
    round restarts the schedule.
    """
    records = [r for _, recs in rounds for r in recs]
    summary = summarize(records, rate, any(s["aborted"] for s, _ in rounds))
    summary["p90_ms"] = median([s["p90_ms"] for s, _ in rounds])
    summary["backlog_growth_ms"] = max(s["backlog_growth_ms"] for s, _ in rounds)
    return summary


def find_max_rps(address, keys: Keys, ref: dict, ref_rps: float,
                 closed_rps: float) -> tuple[float, list[dict]]:
    """Open-loop probes at fixed shares of the closed-loop throughput.

    ``max_rps`` is read off where the tail latency crosses the 50 ms
    limit between the highest passing and the lowest failing probe (the
    reference phase counts as a probe at ``ref_rps``).  If every probe
    passes, it is the highest rate probed.
    """
    limit_ms = LATENCY_LIMIT_S * 1e3
    points = [(ref_rps, ref)]
    for share in PROBE_SHARES:
        rate = closed_rps * share
        if rate <= ref_rps:
            continue
        summary, _, _ = drive(address, keys, rate, PROBE_S)
        points.append((rate, summary))
        if not meets_limit(summary):
            break
    passing = [(rate, s) for rate, s in points if meets_limit(s)]
    failing = [(rate, s) for rate, s in points if not meets_limit(s)]
    probes = [s for _, s in points[1:]]
    if not passing:
        return 0.0, probes
    lo, lo_s = max(passing, key=lambda p: p[0])
    if not failing:
        return lo, probes
    hi, hi_s = min(failing, key=lambda p: p[0])
    lo_tail, hi_tail = lo_s["tail_ms"], hi_s["tail_ms"]
    if hi < lo or hi_tail is None or hi_tail <= lo_tail:
        return lo, probes
    share = min(1.0, max(0.0, (limit_ms - lo_tail) / (hi_tail - lo_tail)))
    return lo + (hi - lo) * share, probes


# Keeps one core busy at the lowest priority.  An idle vCPU of a shared
# VM can wake late when a request arrives; with every core busy, a
# request's wake-up is a guest-scheduler preemption instead, and the
# latency measures the program rather than the host's idle handling.
SPINNER = "import os\nos.nice(19)\nwhile True:\n    pass\n"


@contextmanager
def busy_cores():
    """Run one lowest-priority spinner per core for the block's duration."""
    spinners = [subprocess.Popen([sys.executable, "-c", SPINNER]) for _ in range(os.cpu_count() or 1)]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def measure(name: str, artifact: Path, seed: int, seconds: float, trace_dir: Path | None,
            setup_repeats: int) -> dict:
    """One pass: start (and restart) the server, check parity, offer load."""
    with busy_cores():
        return _measure(name, artifact, seed, seconds, trace_dir, setup_repeats)


def _measure(name: str, artifact: Path, seed: int, seconds: float, trace_dir: Path | None,
             setup_repeats: int) -> dict:
    from repro.serve import RecommenderService

    spec = WORKLOADS[name]
    setups = []
    for _ in range(setup_repeats - 1):
        server = Server(artifact, spec["flags"], trace_dir)
        setups.append(server.setup_s)
        server.stop()
    server = Server(artifact, spec["flags"], trace_dir)
    setups.append(server.setup_s)
    try:
        reference = RecommenderService(artifact, cache_size=0)
        keys = Keys(spec["keys"], seed, reference.n_users)
        # Parity users come off the request stream, so on the distinct-user
        # workload the load never revisits a user the check has cached.
        parity_failed = parity_failures(server.address, reference, keys.take(PARITY_USERS))
        ref_s = max(seconds * REF_SHARE, MIN_REF_REQUESTS / spec["ref_rps"])
        done, closed_failed, _ = run_closed_loop(
            _send(server.address), _connection(server.address), keys.warm, START_TIMEOUT_S,
            CONNECTIONS,
        )
        closed_attempted = len(done) + closed_failed
        drive(server.address, keys, spec["ref_rps"], WARMUP_S)
        rounds, windows, rates = [], [], []
        hits = lookups = 0
        for _ in range(ROUNDS):
            _, before = get(server.address, "/stats")
            summary, window, records = drive(server.address, keys, spec["ref_rps"], ref_s / ROUNDS)
            _, after = get(server.address, "/stats")
            rounds.append((summary, records))
            windows.append(window)
            (h0, n0), (h1, n1) = cache_counts(before), cache_counts(after)
            hits, lookups = hits + h1 - h0, lookups + n1 - n0
            rate, attempted, failed = burst(server.address, keys)
            if rate is not None:
                rates.append(rate)
            closed_attempted, closed_failed = closed_attempted + attempted, closed_failed + failed
        ref = pooled(rounds, spec["ref_rps"])
        closed_rps = median(rates) if rates else 0.0
        max_rps, probes = find_max_rps(server.address, keys, ref, spec["ref_rps"], closed_rps)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    load_failed = ref["failed"] + closed_failed + sum(p["failed"] for p in probes)
    load_attempted = ref["requests"] + closed_attempted + sum(p["requests"] for p in probes)
    return {
        "setup_s": median(setups),
        "setups": setups,
        "server_pid": server.proc.pid,
        "peak_rss_mb": peak_rss,
        "ref": ref,
        "probes": probes,
        "max_rps": max_rps,
        "closed_loop_rps": closed_rps,
        "burst_rps": rates,
        "windows": windows,
        "client_latency_s": [r.done - r.sent for _, recs in rounds for r in recs],
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "attempted": PARITY_USERS + load_attempted,
        "failed": parity_failed + load_failed,
        "parity_failed": parity_failed,
        "ref_s": ref_s,
        "warm_requests": len(keys.warm),
    }
