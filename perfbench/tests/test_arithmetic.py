"""The benchmark's own arithmetic: percentile support, open-loop
due-time accounting and span self time."""

import time

import pytest

from loadgen import Record, run_open_loop, summarize
from stats import highest_supported, percentile, self_times, supported_percentile, supports


class TestPercentileSupport:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert supports(1000, 99.0)
        assert not supports(999, 99.0)
        assert supported_percentile(range(999), 99.0) is None
        assert supported_percentile(range(1000), 99.0) == pytest.approx(989.01)

    def test_p90_needs_a_hundred_samples(self):
        assert supports(100, 90.0)
        assert not supports(99, 90.0)

    def test_highest_supported_steps_down(self):
        assert highest_supported(5000) == 99.0
        assert highest_supported(250) == 95.0
        assert highest_supported(100) == 90.0
        assert highest_supported(19) is None

    def test_interpolation_matches_numpy(self):
        np = pytest.importorskip("numpy")
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


class TestOpenLoopAccounting:
    def test_record_charges_queueing_to_latency_not_lag(self):
        # Due at 1.0, but the only connection was busy until 1.3.
        record = Record(index=0, due=1.0, free_at=1.3, sent=1.301, done=1.31, ok=True)
        assert record.latency == pytest.approx(0.31)
        assert record.lag == pytest.approx(0.001)

    def test_stalled_request_charges_the_requests_queued_behind_it(self):
        stall_s, period = 0.25, 0.01

        def send(conn, key):
            time.sleep(stall_s if key == "stall" else 0.001)
            return True

        keys = ["ok", "ok", "stall"] + ["ok"] * 17
        records, start, aborted = run_open_loop(
            send, lambda: None, keys, rate=1 / period, duration=len(keys) * period,
            connections=1,
        )
        assert not aborted and len(records) == len(keys)
        stalled = records[2]
        for record in records[3:10]:
            # Each queued request waited for the stall to finish, and that
            # wait counts from its own due time.
            assert record.sent >= stalled.done - 1e-6
            assert record.latency >= stalled.done - record.due
            assert record.latency > period
            assert record.lag < 0.05
        summary = summarize(records, 1 / period)
        assert summary["p50_ms"] > 10.0  # most requests queued behind the stall


class TestSelfTime:
    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            (1, None, 0.0, 10.0),
            (2, 1, 1.0, 4.0),
            (3, 1, 3.0, 6.0),    # overlaps span 2 (threads)
            (4, 1, 8.0, 12.0),   # runs past its parent
            (5, 2, 1.5, 2.0),    # grandchild: only span 2 loses it
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
        assert selfs[2] == pytest.approx(3.0 - 0.5)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[5] == pytest.approx(0.5)

    def test_tracer_spans_nest_per_thread(self):
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
        metrics = layer_metrics([tracer.snapshot()])
        assert metrics["inner_s"] >= 0.03
        assert 0.02 <= metrics["outer_s"] < 0.03 + 0.02
        (outer,) = [s for s in tracer.spans if s[0] == "outer"]
        (inner,) = [s for s in tracer.spans if s[0] == "inner"]
        assert inner[4] == outer[3] and inner[5] == outer[3]  # parent and request id


def test_window_rates_measure_between_completions():
    from loadgen import window_rates

    times = [0.05, 0.15, 0.25, 0.35, 0.45, 0.6, 0.7, 0.8, 1.7]
    rates = window_rates(times, start=0.0, duration=2.0, window=0.5)
    assert rates == pytest.approx([10.0, 10.0])  # the last window holds one completion


def test_lru_replay_reproduces_the_cache_state():
    import random
    from collections import OrderedDict

    from loadgen import lru_replay

    def lru(requests, size, cache=None):
        cache = OrderedDict() if cache is None else cache
        for key in requests:
            cache.pop(key, None)
            cache[key] = True
            while len(cache) > size:
                cache.popitem(last=False)
        return cache

    rng = random.Random(0)
    history = [min(int(rng.paretovariate(1.1)), 500) for _ in range(5000)]
    stale = lru(range(1000, 1100), 64)  # whatever the cache held before
    for size in (16, 64):
        assert list(lru(lru_replay(history, 64), size, stale.copy())) == list(lru(history, size))
    assert len(lru_replay(history, 64)) == 64
