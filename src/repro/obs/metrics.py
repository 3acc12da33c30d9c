"""In-memory metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a process-local, zero-dependency metric
store.  Its :meth:`~MetricsRegistry.feed_record` is a record consumer
of a :class:`~repro.obs.tracer.RecordTracer`: it folds the trace record
stream into the registry — event counts per name, span durations into
histograms, counters and gauges straight through — so the CLI's
``--metrics`` flag is just "feed the registry every record, render it
at exit".

Histograms use *fixed* bucket boundaries chosen at creation (defaults
suit sub-second span timings).  Observations record the count per
bucket plus running sum/min/max, which is enough for the summary table
and keeps memory constant regardless of run length.

For a scrapeable production view, :func:`render_prometheus` serializes
a registry in the Prometheus text exposition format (version 0.0.4):
counters and gauges as single samples, histograms as *cumulative*
``_bucket{le="..."}`` series plus ``_sum``/``_count``.  Labels are
zero-dependency by convention: a metric registered under
``name{key="value"}`` (see :func:`labelled`) is rendered as that exact
sample line, with the base name shared across the family's ``# TYPE``
header.
"""

from __future__ import annotations

import sys
from typing import Any, TextIO

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_SECONDS_BUCKETS", "LATENCY_SECONDS_BUCKETS",
           "labelled", "render_prometheus"]

#: Default histogram boundaries for span durations, in seconds.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0,
)

#: Request/fsync-latency boundaries (the classic Prometheus ladder):
#: finer sub-second resolution than the span default, for the service's
#: per-endpoint latency and WAL-fsync histograms.
LATENCY_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += delta


class Gauge:
    """A sampled level; remembers the last value and the extremes."""

    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self.min: float | None = None
        self.max: float | None = None
        self.samples = 0

    def set(self, value: float) -> None:
        if value != value:  # NaN poisons min/max forever — refuse it
            raise ValueError(
                f"gauge {self.name!r}: NaN is not a valid sample"
            )
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples += 1


class Histogram:
    """Fixed-boundary histogram with running sum/min/max.

    ``buckets[i]`` counts observations ``<= boundaries[i]``; one extra
    overflow bucket counts the rest (rendered as ``+Inf``).
    """

    __slots__ = ("name", "boundaries", "buckets", "count", "sum",
                 "min", "max")

    def __init__(
        self, name: str, boundaries: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    ):
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.name = name
        self.boundaries = tuple(boundaries)
        self.buckets = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        if value != value:  # NaN poisons sum/min/max forever — refuse it
            raise ValueError(
                f"histogram {self.name!r}: NaN is not a valid observation"
            )
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, boundary in enumerate(self.boundaries):
            if value <= boundary:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create store for counters, gauges, and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self,
        name: str,
        boundaries: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, boundaries)
        return metric

    def feed_record(self, record: dict[str, Any]) -> None:
        """Fold one trace record into the registry.

        * events increment ``events.<name>``;
        * counters increment their own name;
        * gauges set their own name;
        * span closes observe their ``dur`` in ``span.<name>.seconds``
          and count exceptional exits in ``span.<name>.errors``.

        A stitched span's ``dur`` was measured where it ran, so a
        worker's or a request's time is recorded, not the stitch's.
        """
        kind = record["kind"]
        name = record["name"]
        if kind == "event":
            self.counter(f"events.{name}").inc()
        elif kind == "counter":
            self.counter(name).inc(int(record.get("delta", 1)))
        elif kind == "gauge":
            value = record.get("value")
            if isinstance(value, (int, float)):
                self.gauge(name).set(value)
        elif kind == "span_close":
            self.histogram(f"span.{name}.seconds").observe(
                float(record.get("dur", 0.0))
            )
            if record.get("error"):
                self.counter(f"span.{name}.errors").inc()

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every metric (stable for tests/JSON)."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: {
                    "value": metric.value,
                    "min": metric.min,
                    "max": metric.max,
                    "samples": metric.samples,
                }
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean(),
                    "min": metric.min,
                    "max": metric.max,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    def render(self, file: TextIO | None = None) -> None:
        """Write the human-readable summary table (CLI ``--metrics``)."""
        out = file if file is not None else sys.stderr
        rows: list[tuple[str, str, str]] = []
        for name, counter in sorted(self._counters.items()):
            rows.append((name, "counter", str(counter.value)))
        for name, gauge in sorted(self._gauges.items()):
            rows.append((
                name,
                "gauge",
                f"last={_fmt(gauge.value)} min={_fmt(gauge.min)} "
                f"max={_fmt(gauge.max)} n={gauge.samples}",
            ))
        for name, histogram in sorted(self._histograms.items()):
            rows.append((
                name,
                "histogram",
                f"n={histogram.count} sum={_fmt(histogram.sum)}s "
                f"mean={_fmt(histogram.mean())}s "
                f"max={_fmt(histogram.max)}s",
            ))
        if not rows:
            print("(no metrics recorded)", file=out)
            return
        name_width = max(len(row[0]) for row in rows)
        type_width = max(len(row[1]) for row in rows)
        for name, metric_type, detail in rows:
            print(
                f"{name:<{name_width}}  {metric_type:<{type_width}}  {detail}",
                file=out,
            )


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def labelled(name: str, **labels: Any) -> str:
    """Embed Prometheus labels into a registry key: ``name{k="v",...}``.

    The registry itself is label-agnostic (keys are plain strings);
    this helper fixes one canonical spelling — sorted keys, values
    escaped per the exposition format — so the same label set always
    maps to the same metric object.
    """
    if not labels:
        return name
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{body}}}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _split_labelled(key: str) -> tuple[str, str]:
    """``name{a="b"}`` → ``("name", 'a="b"')``; plain names → ``("", )``."""
    if key.endswith("}") and "{" in key:
        base, _, rest = key.partition("{")
        return base, rest[:-1]
    return key, ""


def _prom_number(value: float) -> str:
    if value != value:  # pragma: no cover - NaN is rejected upstream
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return format(value, ".12g")


def render_prometheus(registry: MetricsRegistry) -> str:
    """Serialize a registry in the Prometheus text exposition format.

    One ``# TYPE`` header per metric family (the base name before any
    ``{labels}``), then the samples: counters and gauges as single
    lines, histograms as cumulative ``<name>_bucket{le="..."}`` series
    — each bucket counts observations at or below its boundary, ending
    with the ``+Inf`` catch-all — plus ``<name>_sum`` and
    ``<name>_count``.  Gauges that were never set are skipped (there is
    no sample to report).  Output ends with a newline, as scrapers
    expect.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def header(base: str, kind: str) -> None:
        if base not in typed:
            typed.add(base)
            lines.append(f"# TYPE {base} {kind}")

    for key, counter in sorted(registry._counters.items()):
        base, _ = _split_labelled(key)
        header(base, "counter")
        lines.append(f"{key} {counter.value}")
    for key, gauge in sorted(registry._gauges.items()):
        if gauge.value is None:
            continue
        base, _ = _split_labelled(key)
        header(base, "gauge")
        lines.append(f"{key} {_prom_number(gauge.value)}")
    for key, histogram in sorted(registry._histograms.items()):
        base, label_body = _split_labelled(key)
        header(base, "histogram")
        cumulative = 0
        for boundary, count in zip(
            histogram.boundaries, histogram.buckets
        ):
            cumulative += count
            le = f'le="{_prom_number(boundary)}"'
            labels = f"{label_body},{le}" if label_body else le
            lines.append(f"{base}_bucket{{{labels}}} {cumulative}")
        le = 'le="+Inf"'
        labels = f"{label_body},{le}" if label_body else le
        lines.append(f"{base}_bucket{{{labels}}} {histogram.count}")
        suffix = f"{{{label_body}}}" if label_body else ""
        lines.append(f"{base}_sum{suffix} {_prom_number(histogram.sum)}")
        lines.append(f"{base}_count{suffix} {histogram.count}")
    return "\n".join(lines) + "\n" if lines else ""
