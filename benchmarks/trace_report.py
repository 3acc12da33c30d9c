"""Aggregate a JSONL trace into a per-phase profile.

Reads a trace written by :class:`repro.obs.jsonl.JsonlTraceWriter` (the
CLI's ``--trace FILE``) and prints:

* per-span wall-clock totals — count, total/mean/max duration per span
  name, so the time split between candidate generation, oracle passes,
  and dualization is visible without a profiler;
* per-worker attribution — stitched multi-process traces carry
  ``worker.task`` spans tagged with the worker pid;
  the report totals each worker's task count and wall clock, making
  load imbalance visible from the trace alone;
* per-request latency — service traces (``repro serve --trace``) close
  one ``service.request`` span per HTTP request; the report tables
  count/total/mean/max latency per endpoint;
* per-level levelwise progression — ``|C_l|``, interesting, rejected,
  and the candidate-generation wall clock (the ``levelwise.generate``
  sub-span) per ``levelwise.level`` span (the Theorem 10 ledger, level
  by level);
* event and query counts — total / charged / cache-served
  ``oracle.query`` events plus every other event name;
* the offline :class:`repro.obs.monitor.TheoremMonitor` verdict — the
  same certification the live CLI prints, recomputed from the file
  alone.

Usage::

    python -m benchmarks.trace_report run.jsonl
    python -m benchmarks.trace_report run.jsonl --validate   # schema check

``--validate`` additionally runs every record through
:func:`repro.obs.schema.validate_trace` and exits non-zero on any
problem — the core of ``make trace-smoke``.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from collections.abc import Sequence

from repro.obs.monitor import TheoremMonitor
from repro.obs.schema import KNOWN_EVENTS, parse_trace, validate_trace

__all__ = ["build_report", "render_report", "main"]


def build_report(records: list[dict]) -> dict:
    """Fold a record list into the aggregate profile structure.

    Returns a plain dict (stable for tests/JSON): ``spans`` maps span
    name to ``{count, total, mean, max, errors}``; ``levels`` lists the
    ``levelwise.level`` close records in file order, each with the
    matching ``levelwise.generate`` wall clock under ``generate``
    (``None`` for levels that never generated, e.g. the last); ``events``
    maps event name to count; ``queries`` holds total / charged / cached
    ``oracle.query`` splits; ``counters`` sums counter deltas;
    ``workers`` maps worker pid to ``{tasks, total}`` (stitched
    multi-process traces); ``requests`` maps endpoint to
    ``{count, total, mean, max}``; ``unknown_names`` lists record names
    outside the published schema, and ``malformed`` counts records the
    reporter could not fold (both are reported, never fatal — a report
    from a newer or damaged trace is still better than a crash).
    """
    durations: dict[str, list[float]] = defaultdict(list)
    span_errors: dict[str, int] = defaultdict(int)
    events: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    levels: list[dict] = []
    queries = {"total": 0, "charged": 0, "cached": 0}
    workers: dict[int, dict] = defaultdict(
        lambda: {"tasks": 0, "total": 0.0}
    )
    requests: dict[str, list[float]] = defaultdict(list)
    unknown_names: set[str] = set()
    malformed = 0
    # The generate span's rank rides on its *open* record; remember it
    # by span id so the close's duration can be keyed back to the level.
    generate_rank_by_id: dict[int, int] = {}
    generate_seconds: dict[int, float] = {}
    for record in records:
        try:
            kind = record.get("kind")
            name = record.get("name", "")
            attrs = record.get("attrs", {}) or {}
            if name and name not in KNOWN_EVENTS:
                unknown_names.add(name)
            if kind == "span_open" and name == "levelwise.generate":
                generate_rank_by_id[record.get("id")] = attrs.get("rank")
            if kind == "span_close":
                dur = float(record.get("dur", 0.0))
                durations[name].append(dur)
                if record.get("error"):
                    span_errors[name] += 1
                if name == "worker.task" and "worker" in attrs:
                    row = workers[attrs["worker"]]
                    row["tasks"] += 1
                    row["total"] += dur
                if name == "service.request":
                    requests[attrs.get("endpoint", "?")].append(dur)
                if name == "levelwise.generate":
                    rank = generate_rank_by_id.get(record.get("id"))
                    if rank is not None:
                        generate_seconds[rank] = dur
                if name == "levelwise.level":
                    levels.append(
                        {
                            "rank": attrs.get("rank"),
                            "candidates": attrs.get("candidates"),
                            "interesting": attrs.get("interesting"),
                            "rejected": attrs.get("rejected"),
                            "seconds": dur,
                        }
                    )
            elif kind == "event":
                events[name] += 1
                if name == "oracle.query":
                    queries["total"] += 1
                    if attrs.get("charged"):
                        queries["charged"] += 1
                    else:
                        queries["cached"] += 1
            elif kind == "counter":
                counters[name] += int(record.get("delta", 0))
        except (TypeError, ValueError, AttributeError):
            malformed += 1
    for row in levels:
        row["generate"] = generate_seconds.get(row["rank"])
    spans = {
        name: {
            "count": len(times),
            "total": sum(times),
            "mean": sum(times) / len(times),
            "max": max(times),
            "errors": span_errors.get(name, 0),
        }
        for name, times in durations.items()
    }
    return {
        "spans": spans,
        "levels": levels,
        "events": dict(events),
        "queries": queries,
        "counters": dict(counters),
        "workers": {pid: dict(row) for pid, row in workers.items()},
        "requests": {
            endpoint: {
                "count": len(times),
                "total": sum(times),
                "mean": sum(times) / len(times),
                "max": max(times),
            }
            for endpoint, times in requests.items()
        },
        "unknown_names": sorted(unknown_names),
        "malformed": malformed,
    }


def render_report(report: dict, monitor: TheoremMonitor, out=None) -> None:
    """Print the human-readable profile tables."""
    out = out if out is not None else sys.stdout
    spans = report["spans"]
    if spans:
        print("per-phase wall clock:", file=out)
        width = max(len(name) for name in spans)
        for name in sorted(
            spans, key=lambda item: -spans[item]["total"]
        ):
            stats = spans[name]
            errors = (
                f"  errors={stats['errors']}" if stats["errors"] else ""
            )
            print(
                f"  {name:<{width}}  n={stats['count']:<6} "
                f"total={stats['total']:.6f}s "
                f"mean={stats['mean']:.6f}s "
                f"max={stats['max']:.6f}s{errors}",
                file=out,
            )
    if report["levels"]:
        print("levelwise progression:", file=out)
        print(
            "  rank  candidates  interesting  rejected  seconds   "
            "generate",
            file=out,
        )
        for row in report["levels"]:
            generate = row.get("generate")
            generate_text = (
                "-" if generate is None else f"{generate:.6f}"
            )
            print(
                f"  {row['rank']!s:<4}  {row['candidates']!s:<10}  "
                f"{row['interesting']!s:<11}  {row['rejected']!s:<8}  "
                f"{row['seconds']:.6f}  {generate_text}",
                file=out,
            )
    if report.get("workers"):
        print("per-worker attribution:", file=out)
        print("  worker      tasks   seconds", file=out)
        for pid in sorted(report["workers"]):
            row = report["workers"][pid]
            print(
                f"  {pid!s:<10}  {row['tasks']:<6}  {row['total']:.6f}",
                file=out,
            )
    if report.get("requests"):
        print("per-request latency:", file=out)
        print("  endpoint      n       total      mean       max", file=out)
        for endpoint in sorted(report["requests"]):
            stats = report["requests"][endpoint]
            print(
                f"  {endpoint:<12}  {stats['count']:<6} "
                f"{stats['total']:.6f}  {stats['mean']:.6f}  "
                f"{stats['max']:.6f}",
                file=out,
            )
    queries = report["queries"]
    if queries["total"]:
        print(
            f"oracle queries: {queries['total']} events "
            f"({queries['charged']} charged, {queries['cached']} "
            "cache-served)",
            file=out,
        )
    other = {
        name: count
        for name, count in sorted(report["events"].items())
        if name != "oracle.query"
    }
    if other:
        print("events:", file=out)
        for name, count in other.items():
            print(f"  {name:<24} {count}", file=out)
    if report["counters"]:
        print("counters:", file=out)
        for name, total in sorted(report["counters"].items()):
            print(f"  {name:<24} {total}", file=out)
    for name in report.get("unknown_names", ()):
        print(
            f"warning: unknown record name {name!r} (newer writer?)",
            file=sys.stderr,
        )
    if report.get("malformed"):
        print(
            f"warning: {report['malformed']} malformed records skipped",
            file=sys.stderr,
        )
    print(monitor.report().summary(), file=out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace_report",
        description="Aggregate a repro JSONL trace into a profile.",
    )
    parser.add_argument("trace", help="JSONL trace file (CLI --trace)")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-validate every record first; any problem exits 1",
    )
    args = parser.parse_args(argv)
    try:
        records = parse_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.validate:
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(f"{len(records)} records, schema-valid")
    monitor = TheoremMonitor.from_trace(records)
    render_report(build_report(records), monitor)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
