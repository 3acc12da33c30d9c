"""Paired comparison of two sets of ledger runs.

Usage, from the repository root::

    python -m benchmarks.ledger.compare PARENT*.json CHANGE*.json

The files are reports written with ``--output``: the first half of the
arguments are the parent's runs, the second half the change's, paired in
order (pair *i* is the *i*-th file of each half).  Give both runs of a
pair the same ``--seed``, and run the pairs alternately — parent first
in one pair, change first in the next — so drift on the host cancels;
the tool warns when the reports show otherwise.

For every end-to-end metric on every workload it applies the rule of
the choosing-metrics guide (section 8) with the bounds of
``BENCHMARK.json``:

* **improved** — at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side), and the medians differ
  by more than the parent's quartile spread;
* **unresolved** — either side's quartile spread, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* **regressed** — the change's median is worse than the parent's by
  more than the bound;
* **unchanged** — otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.ledger.metrics import END_TO_END

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = BENCHMARK) -> dict[str, float]:
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Classify one metric on one workload from paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    dominates = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    pairs = len(parent)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and abs(cm - pm) > p3 - p1):
        label = "improved"
    elif spread > bound and not dominates:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return {
        "pairs": pairs, "wins": wins, "losses": losses,
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "worse_by": worse_by, "spread": spread, "bound": bound,
        "verdict": label,
    }


def _metrics(report: dict) -> dict[str, dict[str, float]]:
    return {
        workload: result["metrics"]
        for workload, result in report["workloads"].items()
    }


def compare(parents: list[dict], changes: list[dict],
            bounds: dict[str, float]) -> list[dict]:
    """One row per workload and end-to-end metric."""
    rows = []
    parent_runs = [_metrics(r) for r in parents]
    change_runs = [_metrics(r) for r in changes]
    workloads = sorted(set(parent_runs[0]) & set(change_runs[0]))
    for workload in workloads:
        for metric, (unit, better) in END_TO_END.items():
            row = verdict(
                [run[workload][metric] for run in parent_runs],
                [run[workload][metric] for run in change_runs],
                better, bounds[metric],
            )
            row.update(workload=workload, metric=metric, unit=unit)
            rows.append(row)
    return rows


def pairing_warnings(parents: list[dict], changes: list[dict]) -> list[str]:
    """Pairs that do not share a seed, and pairs whose order (by report
    start time) does not alternate."""
    warnings = [
        f"pair {i} ran seed {p['seed']} on the parent, {c['seed']} on "
        "the change"
        for i, (p, c) in enumerate(zip(parents, changes))
        if p["seed"] != c["seed"]
    ]
    firsts = [
        "parent" if p["started"] < c["started"] else "change"
        for p, c in zip(parents, changes)
    ]
    warnings += [
        f"pairs {i} and {i + 1} both ran the {firsts[i]} first"
        for i in range(len(firsts) - 1) if firsts[i] == firsts[i + 1]
    ]
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger.compare",
        description="Paired parent/change comparison of ledger reports.",
    )
    parser.add_argument("reports", nargs="+", type=Path,
                        help="parent reports, then as many change reports")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    if len(args.reports) % 2:
        print("error: give as many change reports as parent reports",
              file=sys.stderr)
        return 2
    half = len(args.reports) // 2
    loaded = [json.loads(path.read_text()) for path in args.reports]
    parents, changes = loaded[:half], loaded[half:]
    for warning in pairing_warnings(parents, changes):
        print(f"warning: {warning}", file=sys.stderr)
    rows = compare(parents, changes, load_bounds(args.benchmark))
    print(f"{'workload':<12} {'metric':<12} {'parent p50':>11} "
          f"{'change p50':>11} {'worse by':>9} {'spread':>7} {'bound':>6} "
          f"{'wins':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<12} "
              f"{row['parent'][1]:>11.5g} {row['change'][1]:>11.5g} "
              f"{row['worse_by']:>+9.3f} {row['spread']:>7.3f} "
              f"{row['bound']:>6.2f} {row['wins']:>3}/{row['pairs']:<3}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
