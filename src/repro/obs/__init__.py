"""``repro.obs`` — zero-dependency tracing, metrics, and theorem-bound
telemetry.

The engines' query-accounting results (Theorems 10, 12, 21) are
statements about *trajectories*, not just final counters; this package
turns every run into a checkable, plottable record of them:

* :class:`~repro.obs.tracer.Tracer` — the span/event/counter/gauge
  protocol; :data:`~repro.obs.tracer.NULL_TRACER` is the free default
  (one attribute lookup on hot paths when disabled);
* :class:`~repro.obs.jsonl.JsonlTraceWriter` — one JSON record per
  line, monotonic injectable clock, flushed per record so a trace
  survives interrupts;
* :class:`~repro.obs.metrics.MetricsRegistry` /
  :class:`~repro.obs.metrics.MetricsTracer` — in-memory counters,
  gauges, and fixed-bucket histograms with a human-readable summary
  table (the CLI's ``--metrics``);
* :class:`~repro.obs.monitor.TheoremMonitor` — subscribes to the trace
  stream and checks the paper's invariants online (Theorem 10 equality,
  Theorem 12/Corollary 13–14 bounds, Dualize-and-Advance bracket
  monotonicity), or offline against a recorded JSONL trace;
* :mod:`~repro.obs.schema` — the event-record schema and validators
  that ``make trace-smoke`` and :mod:`benchmarks.trace_report` run
  every line through.

Typical wiring::

    from repro.obs import JsonlTraceWriter, MultiTracer, TheoremMonitor

    monitor = TheoremMonitor()
    with JsonlTraceWriter("run.jsonl") as writer:
        tracer = MultiTracer(writer, monitor)
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
        "MultiTracer",
        "as_tracer",
    ),
    "repro.obs.jsonl": ("JsonlTraceWriter",),
    "repro.obs.metrics": (
        "MetricsRegistry",
        "MetricsTracer",
        "DEFAULT_SECONDS_BUCKETS",
        "LATENCY_SECONDS_BUCKETS",
        "labelled",
        "render_prometheus",
    ),
    "repro.obs.context": (
        "TraceContext",
        "WorkerTraceCollector",
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
