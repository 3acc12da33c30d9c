"""Cross-process trace propagation: contexts, buffers, stitching.

Covers the transport seam end to end at the unit level: capturing a
:class:`~repro.obs.context.TraceContext` from a record tracer,
recording under a shipped context (relative timestamps, local ids, the
clock-skew clamp), buffering in a
:class:`~repro.obs.context.RecordBuffer` (drain empties,
drain-refuses-open-spans), and stitching drained batches back through a
:class:`~repro.obs.tracer.RecordTracer` into its consumers (id
remapping, anchoring under the open span, monotone timestamps,
preserved worker durations) — the JSONL writer, the metrics registry
and the :class:`~repro.obs.monitor.TheoremMonitor`.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    JsonlTraceWriter,
    MetricsRegistry,
    RecordBuffer,
    RecordTracer,
    TheoremMonitor,
    TraceContext,
    Tracer,
    validate_trace,
)
from repro.obs.context import active_collector, install_worker_collector


class _FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _context(offset=100.0):
    return TraceContext(
        trace_id="t" * 32, parent_span=None, clock_offset=offset
    )


class TestTraceContext:
    def test_capture_from_record_tracer_carries_identity_and_open_span(
        self,
    ):
        clock = _FakeClock()
        tracer = RecordTracer(
            JsonlTraceWriter(io.StringIO()).feed_record, clock=clock
        )
        with tracer.span("eclat.run", n=4, threshold=3):
            context = TraceContext.capture(tracer)
            assert context.trace_id == tracer.trace_id
            assert context.parent_span == 1
            assert context.clock_offset == 100.0

    def test_capture_from_plain_tracer_mints_fresh_context(self):
        a = TraceContext.capture(Tracer())
        b = TraceContext.capture(Tracer())
        assert a.trace_id != b.trace_id
        assert a.parent_span is None

    def test_context_is_picklable(self):
        import pickle

        context = _context()
        assert pickle.loads(pickle.dumps(context)) == context


class TestRecordBuffer:
    def test_records_use_local_ids_and_relative_timestamps(self):
        clock = _FakeClock(100.0)
        batch = []
        tracer = RecordTracer(
            batch.append, context=_context(100.0), clock=clock
        )
        with tracer.span("worker.task", position=0) as span:
            clock.advance(0.25)
            tracer.event("oracle.query", mask=3, answer=True, charged=True)
            span.note(nodes=7)
        assert tracer.trace_id == "t" * 32
        assert [r["kind"] for r in batch] == [
            "span_open", "event", "span_close",
        ]
        assert batch[0]["id"] == 1 and batch[0]["ts"] == 0.0
        assert batch[1]["ts"] == 0.25
        assert batch[2]["dur"] == 0.25
        assert batch[2]["attrs"]["nodes"] == 7

    def test_clock_skew_clamps_to_zero_not_negative(self):
        clock = _FakeClock(99.0)  # behind the coordinator's zero
        batch = []
        tracer = RecordTracer(
            batch.append, context=_context(100.0), clock=clock
        )
        tracer.event("worker.batch", n=1)
        assert batch[0]["ts"] == 0.0

    def test_drain_empties_the_buffer(self):
        buffer = RecordBuffer(_context())
        with buffer.tracer.span("worker.task", position=0):
            pass
        first = buffer.drain()
        assert len(buffer) == 0
        with buffer.tracer.span("worker.task", position=1):
            pass
        second = buffer.drain()
        assert [r["attrs"]["position"] for r in first + second] == [
            0, 0, 1, 1
        ]
        assert len(buffer) == 0

    def test_drain_refuses_open_spans(self):
        buffer = RecordBuffer(_context())
        span = buffer.tracer.span("worker.task", position=0)
        with pytest.raises(ValueError, match="still"):
            buffer.drain()
        span.__exit__(None, None, None)
        assert len(buffer.drain()) == 2

    def test_install_and_active_collector_roundtrip(self):
        try:
            install_worker_collector(_context())
            assert isinstance(active_collector(), RecordBuffer)
            install_worker_collector(None)
            assert active_collector() is None
        finally:
            install_worker_collector(None)


def _drained_batch(context, *, events=1):
    buffer = RecordBuffer(context)
    with buffer.tracer.span("worker.task", position=0, worker=1234):
        for i in range(events):
            buffer.tracer.event(
                "oracle.query", mask=i, answer=True, charged=True
            )
    return buffer.drain()


class TestJsonlStitch:
    def test_stitch_remaps_ids_and_anchors_under_open_span(self):
        clock = _FakeClock()
        sink = io.StringIO()
        tracer = RecordTracer(JsonlTraceWriter(sink).feed_record, clock=clock)
        with tracer.span("eclat.run", n=4, threshold=2):
            clock.advance(1.0)
            tracer.stitch(_drained_batch(TraceContext.capture(tracer)))
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert validate_trace(records) == []
        opened = [r for r in records if r["kind"] == "span_open"]
        # The remote span got a fresh id in this tracer's sequence and
        # the open eclat.run span as its parent.
        assert opened[1]["name"] == "worker.task"
        assert opened[1]["id"] == 2
        assert opened[1]["parent"] == 1

    def test_stitch_restamps_ts_but_preserves_worker_dur(self):
        clock = _FakeClock()
        sink = io.StringIO()
        tracer = RecordTracer(JsonlTraceWriter(sink).feed_record, clock=clock)
        batch = _drained_batch(TraceContext.capture(tracer))
        worker_dur = batch[-1]["dur"]
        clock.advance(5.0)
        tracer.stitch(batch)
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        closes = [r for r in records if r["kind"] == "span_close"]
        assert closes[0]["ts"] == 5.0  # coordinator clock, not worker's
        assert closes[0]["dur"] == worker_dur
        timestamps = [r["ts"] for r in records]
        assert timestamps == sorted(timestamps)

    def test_stitch_drops_close_without_matching_open(self):
        sink = io.StringIO()
        registry = MetricsRegistry()
        tracer = RecordTracer(
            JsonlTraceWriter(sink).feed_record, registry.feed_record
        )
        tracer.stitch(
            [{"kind": "span_close", "name": "worker.task", "id": 9,
              "dur": 0.1, "ts": 0.0}]
        )
        assert sink.getvalue() == ""
        assert registry.snapshot()["histograms"] == {}

    def test_sequential_stitches_yield_distinct_ids(self):
        sink = io.StringIO()
        tracer = RecordTracer(JsonlTraceWriter(sink).feed_record)
        context = TraceContext.capture(tracer)
        tracer.stitch(_drained_batch(context))
        tracer.stitch(_drained_batch(context))
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        assert validate_trace(records) == []
        ids = [r["id"] for r in records if r["kind"] == "span_open"]
        assert len(set(ids)) == len(ids) == 2


class TestFanoutStitch:
    def test_stitch_reaches_every_consumer(self):
        sink = io.StringIO()
        registry = MetricsRegistry()
        monitor = TheoremMonitor()
        tracer = RecordTracer(
            JsonlTraceWriter(sink).feed_record,
            registry.feed_record,
            monitor.feed_record,
        )
        tracer.stitch(_drained_batch(TraceContext.capture(tracer), events=3))
        assert sink.getvalue().count("\n") == 5
        assert registry.counter("events.oracle.query").value == 3
        assert monitor._charged == 3

    def test_metrics_stitch_folds_span_durations(self):
        registry = MetricsRegistry()
        RecordTracer(registry.feed_record).stitch(
            _drained_batch(_context(), events=0)
        )
        histogram = registry.histogram("span.worker.task.seconds")
        assert histogram.count == 1

    def test_monitor_stitch_feeds_the_live_checks(self):
        monitor = TheoremMonitor()
        RecordTracer(monitor.feed_record).stitch(
            _drained_batch(_context(), events=2)
        )
        # No *.done accounting events in the batch — nothing to certify,
        # but the records were accepted without error.
        assert monitor.report().ok
