"""Telemetry-plane overhead benchmark (``BENCH_PR8.json``).

Measures what the observability stack costs the code it watches, at the
two price points the stack actually has:

* **service plane** (gated, target ≥ 0.95x — i.e. < 5% overhead): a
  fixed request mix against the HTTP service — hot-threshold mines,
  borders, membership, health — with the full per-request telemetry on
  (request-scoped record buffers stitched into one tracer feeding a
  JSONL writer and the theorem monitor, always-on latency histograms) versus the same server
  untraced.  This is the configuration a production ``repro serve
  --trace`` runs, and it must stay effectively free: per-request
  tracing buffers a handful of span records and folds them under one
  lock at request end.
* **engine firehose** (informational, no target): a full serial
  :func:`~repro.mining.eclat.eclat` run with ``--trace``-equivalent
  instrumentation.  Deep traces record *every* oracle query — hundreds
  of thousands of JSONL records for seconds of mining — which is the
  point (complete Theorem-10 accounting, offline certification) and the
  price (several times slower).  The number is recorded so the cost
  stays visible and tracked, not hidden; the docs steer profiling-only
  users to ``--profile``, which samples instead.

Both sides of every pair must produce identical mining output before a
number is recorded.

::

    PYTHONPATH=src python -m benchmarks.bench_obs --output /tmp/p8.json
    PYTHONPATH=src python -m benchmarks.check_regression /tmp/p8.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import tempfile
import time
from pathlib import Path

from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.mining.eclat import eclat
from repro.obs.jsonl import JsonlTraceWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import TheoremMonitor
from repro.obs.schema import parse_trace, validate_trace
from repro.obs.tracer import RecordTracer
from repro.service.server import MiningServer
from repro.service.state import ServiceCore

REPO_ROOT = Path(__file__).resolve().parent.parent

SERVE = {
    "n_items": 40,
    "n_transactions": 2_000,
    "avg_transaction_length": 8,
    "avg_pattern_length": 4,
    "seed": 11,
    "threshold_rows": 60,
    "requests": 300,
    "family": "Quest (service request mix)",
}
ENGINE = {
    "n_items": 40,
    "n_transactions": 2_000,
    "avg_transaction_length": 8,
    "avg_pattern_length": 4,
    "seed": 11,
    "threshold_rows": 60,
    "family": "Quest (serial eclat, full trace)",
}
SERVE_TARGET = 0.95  # traced may cost at most ~5% of request throughput


def _database(params: dict):
    return generate_quest_database(
        QuestParameters(
            n_items=params["n_items"],
            n_transactions=params["n_transactions"],
            avg_transaction_length=params["avg_transaction_length"],
            avg_pattern_length=params["avg_pattern_length"],
        ),
        seed=params["seed"],
    )


def _theory_payload(theory) -> tuple:
    return (
        sorted(theory.maximal),
        sorted(theory.negative_border),
        sorted(theory.supports.items()),
    )


def _serve_pass(database, threshold: int, requests: int, traced: bool):
    """One timed request mix; returns ``(seconds, mine_payload)``."""
    trace_path = None
    writer = None
    if traced:
        trace_path = tempfile.mktemp(suffix=".jsonl")
        writer = JsonlTraceWriter(trace_path)
        tracer = RecordTracer(
            writer.feed_record, TheoremMonitor().feed_record
        )
        registry = MetricsRegistry()
        core = ServiceCore(database, threshold, tracer=tracer,
                           registry=registry)
        server = MiningServer(core, port=0, tracer=tracer,
                              registry=registry, trace_writer=writer)
    else:
        core = ServiceCore(database, threshold)
        server = MiningServer(core, port=0)
    server.start_background()
    port = server.port
    mix = ["/mine", "/health", "/borders", "/member?mask=3"]
    paths = mix * (requests // len(mix))
    mine_payload = None
    try:
        # One persistent keep-alive connection, the way a production
        # client drives the service: per-request TCP connects add tens
        # of percent of run-to-run noise on loopback, drowning the <5%
        # effect this benchmark exists to measure.
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=10
        )
        try:
            t0 = time.perf_counter()
            for path in paths:
                connection.request("GET", path)
                body = connection.getresponse().read()
                if path == "/mine" and mine_payload is None:
                    mine_payload = json.loads(body)
            seconds = time.perf_counter() - t0
        finally:
            connection.close()
    finally:
        server.stop()
        if writer is not None:
            writer.close()
    if trace_path is not None:
        # The traced side must also produce a *valid* trace, or the
        # speed was bought by writing garbage.
        problems = validate_trace(parse_trace(trace_path))
        if problems:
            raise AssertionError(f"traced serve: invalid trace {problems}")
        os.unlink(trace_path)
    return seconds, mine_payload


def _engine_pass(database, threshold: int, traced: bool):
    if not traced:
        t0 = time.perf_counter()
        theory = eclat(database, threshold)
        return time.perf_counter() - t0, _theory_payload(theory)
    trace_path = tempfile.mktemp(suffix=".jsonl")
    writer = JsonlTraceWriter(trace_path)
    tracer = RecordTracer(
        writer.feed_record,
        MetricsRegistry().feed_record,
        TheoremMonitor().feed_record,
    )
    t0 = time.perf_counter()
    theory = eclat(database, threshold, tracer=tracer)
    seconds = time.perf_counter() - t0
    writer.close()
    os.unlink(trace_path)
    return seconds, _theory_payload(theory)


def _workload(
    name, params, old, new, *, target=None, repeats=2
) -> dict:
    # Alternate sides each round.  Loopback-HTTP timings drift with
    # machine state (CPU frequency scaling, page cache, socket churn),
    # so timing every untraced pass first and every traced pass second
    # would charge that drift to tracing; interleaving and taking the
    # best-of per side cancels it.
    old_seconds = new_seconds = None
    old_payload = new_payload = None
    for _ in range(repeats):
        seconds, old_payload = old()
        old_seconds = (
            seconds if old_seconds is None else min(old_seconds, seconds)
        )
        seconds, new_payload = new()
        new_seconds = (
            seconds if new_seconds is None else min(new_seconds, seconds)
        )
    if old_payload != new_payload:
        raise AssertionError(f"{name}: outputs differ with tracing on")
    speedup = old_seconds / new_seconds if new_seconds > 0 else float("inf")
    record = {
        "name": name,
        "params": params,
        "old_seconds": round(old_seconds, 4),
        "new_seconds": round(new_seconds, 4),
        "speedup": round(speedup, 2),
        "target": target,
        "workers_needed": 1,
        "cpu_gated": False,
        "meets_target": None if target is None else speedup >= target,
        "outputs_equal": True,
    }
    status = ""
    if target is not None:
        status = "  [target %gx: %s]" % (
            target, "MET" if speedup >= target else "MISSED"
        )
    print(
        f"{name}: untraced={old_seconds:.3f}s traced={new_seconds:.3f}s "
        f"speedup={speedup:.2f}x{status}"
    )
    return record


def run_suite(repeats: int = 2) -> dict:
    print("== PR 8 telemetry-plane overhead benchmark ==")
    serve_db = _database(SERVE)
    engine_db = _database(ENGINE)
    records = [
        _workload(
            "obs_serve_request_untraced_vs_traced",
            dict(SERVE),
            lambda: _serve_pass(
                serve_db, SERVE["threshold_rows"], SERVE["requests"], False
            ),
            lambda: _serve_pass(
                serve_db, SERVE["threshold_rows"], SERVE["requests"], True
            ),
            target=SERVE_TARGET,
            repeats=repeats,
        ),
        _workload(
            "obs_eclat_serial_untraced_vs_traced",
            dict(ENGINE),
            lambda: _engine_pass(engine_db, ENGINE["threshold_rows"], False),
            lambda: _engine_pass(engine_db, ENGINE["threshold_rows"], True),
            target=None,
            repeats=repeats,
        ),
    ]
    targeted = [r for r in records if r["target"] is not None]
    return {
        "pr": 8,
        "description": (
            "Telemetry-plane overhead: the production service path "
            "(per-request trace collectors + always-on Prometheus "
            "instruments) is gated at <5% overhead versus an untraced "
            "server; the full-engine trace firehose (every oracle "
            "query as a JSONL record) is recorded informationally — "
            "it is a debugging tool and priced accordingly (see "
            "benchmarks/bench_obs.py and docs/API.md §16)."
        ),
        "available_cpus": len(os.sched_getaffinity(0)),
        "workloads": records,
        "targets_met": all(r["meets_target"] for r in targeted),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark observability overhead."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR8.json",
        help="where to write the JSON report "
        "(default: the committed BENCH_PR8.json baseline)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="best-of repeats per timed side (default 2)",
    )
    args = parser.parse_args(argv)
    report = run_suite(repeats=args.repeats)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"wrote {args.output}  (targets_met={report['targets_met']})"
    )
    return 0 if report["targets_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
