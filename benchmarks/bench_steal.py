"""Work-stealing parallel Eclat benchmark suite (``BENCH_PR6.json``).

Times the shipped shared-memory
:func:`repro.parallel.eclat.eclat_parallel` — every subtree task
submitted up front and folded in submission order — against (a) the
serial engine and (b) the frozen wave scheduler
(:mod:`benchmarks.wave_reference`) on two workload families:

* **skewed** — a synthetic basket family with a block of dense,
  correlated items in front of a sparse noise tail.  The dense block
  concentrates almost the entire search tree under the first few root
  members: exactly the shape where whole-root waves stall on their
  deepest subtree while queued depth-2 splits keep every worker busy.
* **uniform** — Quest T10.I4 (the ``make perf`` counting workload),
  where subtrees are balanced and the ordered dispatch must at least
  not lose to waves.

The suite's name, row names and targets keep their original ``steal``
spelling, so committed baselines stay comparable.

Every timed pair asserts identical output (theory, borders, supports)
before a number is recorded.  **Honest CPU gating:** speedup *targets*
are asserted only when the host exposes at least as many CPUs as the
workload's worker count (``len(os.sched_getaffinity(0))``).  On a
smaller host the workload still runs and records its measured number,
but ``meets_target`` is ``null`` and ``cpu_gated`` is ``true`` — a
single-core sandbox cannot certify (or refute) a parallel speedup and
must not pretend to.  The report records ``available_cpus`` so readers
can tell which kind of number they are looking at.

::

    PYTHONPATH=src python -m benchmarks.bench_steal
    PYTHONPATH=src python -m benchmarks.bench_steal --output /tmp/p6.json
    PYTHONPATH=src python -m benchmarks.check_regression /tmp/p6.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time
from pathlib import Path

from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.parallel.eclat import eclat_parallel
from repro.util.bitset import Universe

from benchmarks.wave_reference import eclat_waves

REPO_ROOT = Path(__file__).resolve().parent.parent

SKEWED = {
    "n_items": 48,
    "n_dense": 18,
    "n_transactions": 8_000,
    "dense_p": 0.8,
    "noise_p": 0.035,
    "seed": 4242,
    "threshold_rows": 500,
    "family": "dense correlated block + sparse noise tail",
}

UNIFORM = {
    "n_items": 64,
    "n_transactions": 10_000,
    "avg_transaction_length": 10,
    "avg_pattern_length": 4,
    "seed": 9701,
    "min_frequency": 0.0075,
    "family": "Quest T10.I4",
}

#: Acceptance floors (asserted only when the CPUs exist — see gating).
STEAL_8W_TARGET = 4.0  # serial -> 8 workers on the skewed family
STEAL_VS_WAVES_TARGET = 1.3  # waves -> stealing at 4 workers


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def skewed_database() -> TransactionDatabase:
    """Dense correlated block + sparse noise, deterministic."""
    rng = random.Random(SKEWED["seed"])
    n_items = SKEWED["n_items"]
    n_dense = SKEWED["n_dense"]
    rows = []
    for _ in range(SKEWED["n_transactions"]):
        row = 0
        # correlated dense block: one Bernoulli gate per transaction
        # keeps the block's items co-occurring (deep shared subtree)
        if rng.random() < SKEWED["dense_p"]:
            for item in range(n_dense):
                if rng.random() < SKEWED["dense_p"]:
                    row |= 1 << item
        for item in range(n_dense, n_items):
            if rng.random() < SKEWED["noise_p"]:
                row |= 1 << item
        rows.append(row)
    return TransactionDatabase(Universe(range(n_items)), rows)


def uniform_database() -> TransactionDatabase:
    params = QuestParameters(
        n_items=UNIFORM["n_items"],
        n_transactions=UNIFORM["n_transactions"],
        avg_transaction_length=UNIFORM["avg_transaction_length"],
        avg_pattern_length=UNIFORM["avg_pattern_length"],
    )
    return generate_quest_database(params, seed=UNIFORM["seed"])


def _payload(result) -> tuple:
    """Comparable payload of an EclatResult or a waves tuple."""
    if isinstance(result, tuple):
        return result[:3] + (result[3],)
    return (
        result.interesting,
        result.maximal,
        result.negative_border,
        result.supports,
    )


def _best_of(callable_, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _workload(
    name: str,
    params: dict,
    old,
    new,
    *,
    workers_needed: int,
    cpus: int,
    target: float | None = None,
    repeats: int = 2,
) -> dict:
    old_seconds, old_result = _best_of(old, repeats)
    new_seconds, new_result = _best_of(new, repeats)
    equal = _payload(old_result) == _payload(new_result)
    if not equal:
        raise AssertionError(f"{name}: engines disagree")
    speedup = (
        old_seconds / new_seconds if new_seconds > 0 else float("inf")
    )
    gated = cpus < workers_needed
    record = {
        "name": name,
        "params": params,
        "old_seconds": round(old_seconds, 4),
        "new_seconds": round(new_seconds, 4),
        "speedup": round(speedup, 2),
        "target": target,
        "workers_needed": workers_needed,
        "cpu_gated": gated,
        "meets_target": (
            None if target is None or gated else speedup >= target
        ),
        "outputs_equal": equal,
    }
    status = ""
    if target is not None:
        if gated:
            status = (
                f"  [target {target:g}x: GATED — "
                f"{cpus} CPU(s) < {workers_needed} workers]"
            )
        else:
            status = "  [target %gx: %s]" % (
                target,
                "MET" if speedup >= target else "MISSED",
            )
    print(
        f"{name}: old={old_seconds:.3f}s new={new_seconds:.3f}s "
        f"speedup={speedup:.2f}x equal={equal}{status}"
    )
    return record


def run_suite(repeats: int = 2) -> dict:
    cpus = available_cpus()
    print(f"== PR 6 work-stealing benchmark (cpus={cpus}) ==")
    skewed = skewed_database()
    skewed_threshold = SKEWED["threshold_rows"]
    uniform = uniform_database()
    uniform_threshold = uniform.absolute_support(UNIFORM["min_frequency"])

    records = [
        _workload(
            "steal_skewed_serial_vs_8w_shm",
            SKEWED,
            lambda: eclat(skewed, skewed_threshold),
            lambda: eclat_parallel(skewed, skewed_threshold, workers=8),
            workers_needed=8,
            cpus=cpus,
            target=STEAL_8W_TARGET,
            repeats=repeats,
        ),
        _workload(
            "steal_skewed_waves_vs_steal_4w",
            SKEWED,
            lambda: eclat_waves(skewed, skewed_threshold, 4),
            lambda: eclat_parallel(skewed, skewed_threshold, workers=4),
            workers_needed=4,
            cpus=cpus,
            target=STEAL_VS_WAVES_TARGET,
            repeats=repeats,
        ),
        _workload(
            "steal_skewed_serial_vs_2w",
            SKEWED,
            lambda: eclat(skewed, skewed_threshold),
            lambda: eclat_parallel(skewed, skewed_threshold, workers=2),
            workers_needed=2,
            cpus=cpus,
            repeats=repeats,
        ),
        _workload(
            "steal_uniform_waves_vs_steal_4w",
            {**UNIFORM, "threshold_rows": uniform_threshold},
            lambda: eclat_waves(uniform, uniform_threshold, 4),
            lambda: eclat_parallel(uniform, uniform_threshold, workers=4),
            workers_needed=4,
            cpus=cpus,
            repeats=repeats,
        ),
    ]
    targeted = [
        r
        for r in records
        if r["target"] is not None and not r["cpu_gated"]
    ]
    return {
        "pr": 6,
        "description": (
            "Work-stealing parallel Eclat over the zero-copy "
            "shared-memory vertical store: serial engine and frozen "
            "PR 5 wave scheduler vs the stealing scheduler on skewed "
            "and uniform basket data (see benchmarks/bench_steal.py). "
            "Speedup targets are asserted only when the host has the "
            "CPUs (cpu_gated records the decision)."
        ),
        "available_cpus": cpus,
        "workloads": records,
        "targets_met": all(r["meets_target"] for r in targeted),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the work-stealing parallel Eclat."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR6.json",
        help="where to write the JSON report "
        "(default: the committed BENCH_PR6.json baseline)",
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
        f"wrote {args.output}  (targets_met={report['targets_met']}, "
        f"available_cpus={report['available_cpus']})"
    )
    return 0 if report["targets_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
