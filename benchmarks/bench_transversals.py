"""Transversal-engine crossover benchmark suite (``BENCH_PR9.json``).

Times the minimal-transversal engines — Berge multiplication,
Fredman–Khachiyan incremental enumeration, and the MMCS
branch-and-bound enumerator — against each other across the regimes
where the crossover actually happens:

* **data-profiling FD workload** — minimal keys of a synthetic
  relation via the agree-set route: the complement hypergraph has
  hundreds of low-arity edges and tens of thousands of transversals,
  the shape of arXiv:1805.01310's data-profiling instances.  Berge's
  intermediate families blow up here; MMCS's per-output cost does not.
  This is the gated workload: **MMCS ≥ 3× Berge**, serial vs serial,
  so a 1-CPU host can assert it.
* **medium random hypergraphs** — moderate edge count and arity: the
  regime where Berge's simplicity keeps it competitive (recorded, not
  targeted — the honest side of the crossover table).
* **small random hypergraphs** — the largest instance where *full* FK
  enumeration is affordable, making FK's one-duality-test-per-member
  pricing visible.
* **MMCS serial vs 2 workers** — depth-2 subtree tasks;
  CPU-gated like every parallel target (a 1-CPU sandbox records the
  number but cannot certify a speedup).

Every timed pair asserts identical output before a number is recorded.

::

    PYTHONPATH=src python -m benchmarks.bench_transversals
    PYTHONPATH=src python -m benchmarks.bench_transversals --output /tmp/p9.json
    PYTHONPATH=src python -m benchmarks.check_regression /tmp/p9.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.datasets.relations import generate_relation_with_keys
from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.fredman_khachiyan import find_new_minimal_transversal
from repro.hypergraph.generators import random_simple_hypergraph
from repro.hypergraph.mmcs import mmcs_transversal_masks
from repro.parallel.mmcs import mmcs_transversals_parallel
from repro.util.bitset import popcount

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Data-profiling-shaped FD instance: minimal keys of a random relation
#: over a small value domain.  Small domains make rows agree often, so
#: the agree-set complement hypergraph is large (hundreds of edges) with
#: a large transversal family (tens of thousands of minimal keys).
FD_PROFILING = {
    "n_attributes": 20,
    "n_rows": 60,
    "domain_size": 3,
    "seed": 1,
    "family": "agree-set complements (minimal-key discovery)",
}

#: Medium random hypergraph: the Berge-friendly end of the crossover —
#: large enough (tens of milliseconds a side) that the recorded ratio is
#: stable under the regression gate's tolerance.
MEDIUM_RANDOM = {
    "n": 24,
    "n_edges": 120,
    "min_edge_size": 2,
    "max_edge_size": 6,
    "seed": 5,
    "family": "uniform random edges, arity 2-6",
}

#: Small/low-arity random hypergraph: the largest instance where full FK
#: enumeration is affordable (FK pays one duality recursion per family
#: member).
SMALL_RANDOM = {
    "n": 16,
    "n_edges": 40,
    "min_edge_size": 2,
    "max_edge_size": 5,
    "seed": 7,
    "family": "uniform random edges, arity 2-5",
}

#: Acceptance floor for the gated workload: MMCS at least 3x Berge on
#: the FD instance, serial vs serial (no CPU gating needed).
MMCS_VS_BERGE_TARGET = 3.0
#: Parallel floor, asserted only when the host has the CPUs.
MMCS_2W_TARGET = 1.2


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fd_profiling_edges() -> list[int]:
    """Agree-set complement hypergraph of the FD_PROFILING relation."""
    relation = generate_relation_with_keys(
        FD_PROFILING["n_attributes"],
        FD_PROFILING["n_rows"],
        domain_size=FD_PROFILING["domain_size"],
        seed=FD_PROFILING["seed"],
    )
    full = relation.universe.full_mask
    return [full & ~mask for mask in relation.maximal_agree_set_masks()]


def random_edges(params: dict) -> tuple[list[int], int]:
    hypergraph = random_simple_hypergraph(
        params["n"],
        params["n_edges"],
        min_edge_size=params["min_edge_size"],
        max_edge_size=params["max_edge_size"],
        seed=params["seed"],
    )
    return list(hypergraph.edge_masks), params["n"]


def fk_transversal_masks(edge_masks: list[int], n: int) -> list[int]:
    """Full-family enumeration through the FK incremental interface."""
    full = (1 << n) - 1
    found: list[int] = []
    while True:
        fresh = find_new_minimal_transversal(edge_masks, found, full)
        if fresh is None:
            return sorted(found, key=lambda m: (popcount(m), m))
        found.append(fresh)


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
    equal = old_result == new_result
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
    print(f"== PR 9 transversal-engine crossover benchmark (cpus={cpus}) ==")
    fd_edges = fd_profiling_edges()
    fd_params = {**FD_PROFILING, "edges": len(fd_edges)}
    medium_edges, _ = random_edges(MEDIUM_RANDOM)
    medium_params = {**MEDIUM_RANDOM, "edges": len(medium_edges)}
    small_edges, small_n = random_edges(SMALL_RANDOM)
    small_params = {**SMALL_RANDOM, "edges": len(small_edges)}

    records = [
        _workload(
            "transversals_fd_profiling_berge_vs_mmcs",
            fd_params,
            lambda: berge_transversal_masks(fd_edges),
            lambda: mmcs_transversal_masks(fd_edges),
            workers_needed=1,
            cpus=cpus,
            target=MMCS_VS_BERGE_TARGET,
            repeats=repeats,
        ),
        _workload(
            "transversals_medium_random_berge_vs_mmcs",
            medium_params,
            lambda: berge_transversal_masks(medium_edges),
            lambda: mmcs_transversal_masks(medium_edges),
            workers_needed=1,
            cpus=cpus,
            repeats=repeats,
        ),
        _workload(
            "transversals_small_random_fk_vs_mmcs",
            small_params,
            lambda: fk_transversal_masks(small_edges, small_n),
            lambda: mmcs_transversal_masks(small_edges),
            workers_needed=1,
            cpus=cpus,
            repeats=repeats,
        ),
        _workload(
            "transversals_fd_profiling_mmcs_serial_vs_2w",
            fd_params,
            lambda: mmcs_transversal_masks(fd_edges),
            lambda: mmcs_transversals_parallel(fd_edges, workers=2),
            workers_needed=2,
            cpus=cpus,
            target=MMCS_2W_TARGET,
            repeats=repeats,
        ),
    ]
    targeted = [
        r
        for r in records
        if r["target"] is not None and not r["cpu_gated"]
    ]
    return {
        "pr": 9,
        "description": (
            "Berge vs Fredman-Khachiyan vs MMCS minimal-transversal "
            "crossover: a data-profiling-shaped minimal-key workload "
            "(agree-set complements, where MMCS must beat Berge 3x, "
            "asserted serially), the medium-random regime where Berge "
            "stays competitive, the small regime where full FK "
            "enumeration is affordable, and the depth-2 "
            "work-stealing driver (CPU-gated). See "
            "benchmarks/bench_transversals.py."
        ),
        "available_cpus": cpus,
        "workloads": records,
        "targets_met": all(r["meets_target"] for r in targeted),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the transversal-engine crossover."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR9.json",
        help="where to write the JSON report "
        "(default: the committed BENCH_PR9.json baseline)",
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
