"""``repro.obs`` — zero-dependency tracing, metrics, and theorem-bound
telemetry.

The engines' query-accounting results (Theorems 10, 12, 21) are
statements about *trajectories*, not just final counters; this package
turns every run into a checkable, plottable record of them.  One trace
record (:mod:`~repro.obs.schema`) is built per instrumentation point
and handed to every consumer:

* :class:`~repro.obs.tracer.Tracer` — the span/event/counter/gauge
  protocol; :data:`~repro.obs.tracer.NULL_TRACER` is the free default
  (one attribute lookup on hot paths when disabled);
* :class:`~repro.obs.tracer.RecordTracer` — the one tracer that builds
  records: span ids, parents, ``ts``/``dur``/``error`` from one
  injectable monotonic clock, stitched remote batches remapped into
  the stream, and each record handed in order to its consumers;
* :class:`~repro.obs.jsonl.JsonlTraceWriter` — a consumer writing one
  JSON record per line, flushed per record so a trace survives
  interrupts, and rotating without unbalancing spans;
* :class:`~repro.obs.metrics.MetricsRegistry` — in-memory counters,
  gauges, and fixed-bucket histograms with a human-readable summary
  table (the CLI's ``--metrics``); ``feed_record`` folds records in;
* :class:`~repro.obs.monitor.TheoremMonitor` — checks the paper's
  invariants on the records (Theorem 10 equality, Theorem 12/Corollary
  13–14 bounds, Dualize-and-Advance bracket monotonicity), live or
  offline against a recorded JSONL trace;
* :class:`~repro.obs.context.RecordBuffer` — keeps a worker task's or a
  service request's records for stitching into the coordinator stream;
* :mod:`~repro.obs.schema` — the event-record schema and validators
  that ``make trace-smoke`` and :mod:`benchmarks.trace_report` run
  every line through.

Typical wiring::

    from repro.obs import JsonlTraceWriter, RecordTracer, TheoremMonitor

    monitor = TheoremMonitor()
    with JsonlTraceWriter("run.jsonl") as writer:
        tracer = RecordTracer(writer.feed_record, monitor.feed_record)
        result = levelwise(universe, predicate, tracer=tracer)
    assert monitor.report().certified("theorem10")
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.tracer": (
        "Tracer",
        "Span",
        "NullTracer",
        "NULL_TRACER",
        "RecordTracer",
        "as_tracer",
    ),
    "repro.obs.jsonl": ("JsonlTraceWriter",),
    "repro.obs.metrics": (
        "MetricsRegistry",
        "DEFAULT_SECONDS_BUCKETS",
        "LATENCY_SECONDS_BUCKETS",
        "labelled",
        "render_prometheus",
    ),
    "repro.obs.context": (
        "TraceContext",
        "RecordBuffer",
        "install_worker_collector",
        "active_collector",
    ),
    "repro.obs.profile": ("SamplingProfiler",),
    "repro.obs.monitor": ("TheoremMonitor", "TheoremReport", "Check"),
    "repro.obs.schema": (
        "KNOWN_EVENTS",
        "parse_trace",
        "validate_record",
        "validate_trace",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
