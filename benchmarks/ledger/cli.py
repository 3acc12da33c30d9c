"""Command line of the layer-ledger benchmark.

Run from the repository root::

    python -m benchmarks.ledger --workload fimi_100k --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload (or of all
four when ``--workload`` is omitted).  ``--trace 1`` is the traced run:
it ledgers all four workloads and prints every per-layer metric.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
correctness check exits 1 and prints no metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from benchmarks.ledger import serve
from benchmarks.ledger.child import (
    ChildFailed,
    child_main,
    spawn,
    stop_resource_tracker,
)
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from benchmarks.ledger.spans import write_jsonl
from benchmarks.ledger.workloads import BATCH_WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".ledger"
#: Fresh processes per untraced run (see :mod:`benchmarks.ledger.child`).
PROCESSES = 5
SMOKE_PROCESSES = 2
#: Share of ``--seconds`` each workload gets in a traced run, which
#: ledgers all four workloads in one process tree.
TRACE_SHARE = 0.5


class CheckFailed(RuntimeError):
    """The correctness gate rejected a run."""


def run_workload(name: str, seed: int, seconds: float, smoke: bool,
                 workdir: Path) -> dict:
    """One untraced run of one workload: end-to-end metrics.

    The measured job time is split over ``PROCESSES`` fresh children;
    each reports its set-up time, its job times and its peak RSS, and
    the run reports the medians.
    """
    processes = SMOKE_PROCESSES if smoke else PROCESSES
    if name == serve.NAME:
        return serve.run(serve.make_inputs(seed, workdir, smoke), seconds,
                         processes, SRC)
    workload = BATCH_WORKLOADS[name]
    inputs = workload.make_inputs(seed, workdir, smoke)
    setup_times: list[float] = []
    times: list[float] = []
    peaks: list[float] = []
    outs = []
    for _ in range(processes):
        setup_s, out = spawn(child_main, name, inputs, "run",
                             seconds / processes, label=f"{name} child")
        setup_times.append(setup_s)
        times.extend(out["times"])
        peaks.append(out["peak_rss_mb"])
        outs.append(out)
    errors = workload.check(inputs, outs[0]["payload"])
    mismatches = sum(out["mismatches"] for out in outs) + sum(
        out["fingerprint"] != outs[0]["fingerprint"] for out in outs
    )
    if mismatches:
        errors.append(f"{mismatches} jobs returned another result")
    return {
        "errors": errors,
        "attempted": len(times) + processes,
        "failed": 0,
        "job_times": times,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "job_s": statistics.median(times),
            "peak_rss_mb": statistics.median(peaks),
        },
    }


def trace_workload(name: str, seed: int, seconds: float, smoke: bool,
                   workdir: Path) -> dict:
    """The traced pass of one workload: per-layer metrics and spans."""
    if name == serve.NAME:
        return serve.trace(serve.make_inputs(seed, workdir, smoke), seconds,
                           SRC)
    workload = BATCH_WORKLOADS[name]
    inputs = workload.make_inputs(seed, workdir, smoke)
    _, out = spawn(child_main, name, inputs, "trace", seconds,
                   label=f"{name} child")
    errors = workload.check(inputs, out["payload"])
    if out["mismatches"]:
        errors.append(f"{out['mismatches']} jobs returned another result")
    return {
        "errors": errors,
        "attempted": len(out["times"]) + 1,
        "failed": 0,
        "metrics": out["metrics"],
        "spans": out["spans"],
    }


def _gate(name: str, result: dict) -> None:
    if result["errors"]:
        raise CheckFailed(f"{name}: " + "; ".join(result["errors"]))


def measure(workloads, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Run and gate ``workloads``; returns the report.

    Every run gets a private work directory under ``.ledger/`` that is
    removed afterwards; a traced run also leaves its spans there as
    ``spans-seed<N>.jsonl``.
    """
    started = time.time()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    spans: list[dict] = []
    try:
        for name in workloads:
            sub = workdir / name
            sub.mkdir()
            if trace:
                result = trace_workload(name, seed, seconds * TRACE_SHARE,
                                        smoke, sub)
            else:
                result = run_workload(name, seed, seconds, smoke, sub)
            _gate(name, result)
            for failure in result.pop("failures", ()):
                print(f"{name}: failed operation: {failure}",
                      file=sys.stderr)
            spans.extend(result.pop("spans", ()))
            results[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        write_jsonl(OUT / f"spans-seed{seed}.jsonl", spans)
    return {
        "started": started,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def result_line(report: dict) -> dict:
    """The machine-readable last line of standard output."""
    results = report["workloads"]
    metrics: dict[str, dict] = {}
    if report["trace"]:
        merged = {}
        for result in results.values():
            merged.update(result["metrics"])
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": merged[name], "unit": unit}
    else:
        single = len(results) == 1
        for workload, result in results.items():
            for name, (unit, _) in END_TO_END.items():
                key = name if single else f"{workload}.{name}"
                metrics[key] = {"value": result["metrics"][name],
                                "unit": unit}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _print_table(line: dict) -> None:
    for name, metric in line["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")


def calibrate(workloads, runs: int, seed: int, seconds: float,
              smoke: bool) -> dict:
    """Run each workload ``runs`` times on seeds ``seed..seed+runs-1``.

    Returns, per workload and end-to-end metric, the values, their
    median, their quartile spread (``(Q3 - Q1) / median``) and the
    smallest bound that spread supports: three spreads, rounded up to
    0.01, so a later set of runs stays inside it.
    """
    values: dict[str, dict[str, list[float]]] = {
        name: {metric: [] for metric in END_TO_END} for name in workloads
    }
    for offset in range(runs):
        report = measure(workloads, seed + offset, seconds, False, smoke)
        for name, result in report["workloads"].items():
            for metric in END_TO_END:
                values[name][metric].append(result["metrics"][metric])
            print(f"calibrate run {offset + 1}/{runs} {name}: "
                  + json.dumps(result["metrics"]), file=sys.stderr)
    summary: dict[str, dict] = {}
    for name, by_metric in values.items():
        summary[name] = {}
        for metric, series in by_metric.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[name][metric] = {
                "values": series,
                "median": median,
                "spread": spread,
                "bound_needed": math.ceil(3 * spread * 100) / 100,
            }
    return {"runs": runs, "seed": seed, "seconds": seconds,
            "workloads": summary}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Layer-ledger benchmark: end-to-end metrics per "
        "workload, or (--trace 1) per-layer metrics of all workloads.",
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; each workload derives its own")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured job time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics of all "
                        "workloads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same code paths")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run N seeds untraced and report each "
                        "end-to-end metric's median and spread")
    parser.add_argument("--output", type=Path, metavar="PATH",
                        help="also write the full report as JSON")
    return parser


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the finally blocks that stop servers
    # and children, which the default SIGTERM action would skip.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    try:
        if args.calibrate is not None:
            if args.calibrate < 5:
                print("error: --calibrate needs at least 5 runs",
                      file=sys.stderr)
                return 2
            report = calibrate(workloads, args.calibrate, args.seed,
                               args.seconds, args.smoke)
            text = json.dumps(report, indent=1)
            if args.output:
                args.output.write_text(text + "\n")
            print(text)
            return 0
        if args.trace:
            workloads = list(WORKLOAD_NAMES)
        report = measure(workloads, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except (CheckFailed, ChildFailed, serve.ServeFailed) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()
    line = result_line(report)
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    _print_table(line)
    print(json.dumps(line))
    return 0
