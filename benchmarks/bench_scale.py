"""Real-scale (1M+ rows) benchmark suite for the roaring backend.

The default big-int backend made vertical mining fast on Quest-sized
synthetic data; the memory wall the ROADMAP calls out appears at
"millions of transactions", where every big-int cover costs
``n_rows / 8`` bytes *regardless of how sparse it is* — a column with
50 occurrences among 1M rows still allocates ~125 KB because its
highest set bit is near row 1M.  This suite measures that wall and the
``backend="roaring"`` answer to it on deterministic, generator-built
data (no network, no fixture downloads):

* ``scale_dense_cover_memory`` — 1M × 2K-item clustered ("dense runs")
  data; the gated ``speedup`` is the **cover-memory ratio** (total
  big-int cover bytes / total roaring cover bytes, ``metric:
  cover_bytes_ratio``), with the ISSUE's ≥4× reduction as the target.
  Wall-clock columns are the ``from_columnar`` build times.
* ``scale_eclat_dense`` / ``scale_eclat_sparse`` — end-to-end
  :func:`~repro.mining.eclat.eclat` wall-clock, big-int vs roaring, on
  the clustered and the scattered-sparse workloads.  Timing comes from
  one child that interleaves the two backends (machine drift cancels
  instead of landing on one side of the ratio); the per-backend
  children supply the peak-RSS columns.  The gate is the ISSUE's
  "within 1.5×" bound (``speedup ≥ 0.667``); on sparse data roaring is
  expected to win outright.  ``outputs_equal`` asserts the mined
  theory/borders/accounting digests match bit-for-bit.

Every measurement runs in a fresh **spawned** subprocess so
``ru_maxrss`` is that measurement's own peak, not the suite's
high-water mark.  ``--smoke`` shrinks the row counts for CI; the
committed ``BENCH_PR10.json`` must come from a full run::

    PYTHONPATH=src python -m benchmarks.bench_scale --output BENCH_PR10.json
    PYTHONPATH=src python -m benchmarks.bench_scale --smoke --output /tmp/s.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import time
from array import array
from pathlib import Path

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.util.bitset import Universe

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Full-scale parameters — the "measured fast on 1M+-row data" claim.
FULL = {"n_rows": 1_000_000, "n_items": 2_000, "seed": 9710}
#: Smoke parameters for CI — same code paths, minutes → seconds.
SMOKE = {"n_rows": 20_000, "n_items": 200, "seed": 9710}

N_HOT = 24  # clustered high-support items in the dense workload
N_HEAD = 48  # frequent scattered items in the sparse workload


# -- deterministic columnar generators --------------------------------------


def dense_columns(n_rows: int, n_items: int, seed: int) -> list[array]:
    """Clustered "dense runs" data, emitted directly in columnar form.

    The first :data:`N_HOT` items tile the row space in contiguous
    blocks (mutually disjoint, support ≈ ``n_rows / N_HOT`` each) — the
    run-compressible shape of time-clustered retail data.  The tail
    items are scattered singletons (~``n_rows / 20000`` rows each),
    which is where the big-int representation pays full freight for
    near-empty covers.
    """
    rng = random.Random(seed)
    n_hot = min(N_HOT, n_items)
    block = max(1, n_rows // (n_hot * 8)) if n_hot else 1
    columns: list[array] = []
    for item in range(n_hot):
        column = array("Q")
        start = item * block
        while start < n_rows:
            column.extend(range(start, min(start + block, n_rows)))
            start += block * n_hot
        columns.append(column)
    tail_k = max(1, n_rows // 20_000)
    for _ in range(n_hot, n_items):
        k = min(tail_k, n_rows)
        columns.append(array("Q", sorted(rng.sample(range(n_rows), k))))
    return columns


def sparse_columns(n_rows: int, n_items: int, seed: int) -> list[array]:
    """Scattered-sparse data: every cover is a short random row list.

    The first :data:`N_HEAD` items get ~``n_rows / 3300`` rows (frequent
    at the suite threshold), the rest ~``n_rows / 10000`` (infrequent)
    — so Eclat explores the head pairwise and certifies the tail into
    Bd-, all over covers that are tiny in any sane representation.
    """
    rng = random.Random(seed + 1)
    n_head = min(N_HEAD, n_items)
    head_k = max(4, n_rows // 3_300)
    tail_k = max(1, n_rows // 10_000)
    columns: list[array] = []
    for item in range(n_items):
        k = min(head_k if item < n_head else tail_k, n_rows)
        columns.append(array("Q", sorted(rng.sample(range(n_rows), k))))
    return columns


def dense_threshold(n_rows: int) -> int:
    return max(1, n_rows // (N_HOT * 2))


def sparse_threshold(n_rows: int) -> int:
    head_k = max(4, n_rows // 3_300)
    tail_k = max(1, n_rows // 10_000)
    return max(1, (head_k + tail_k) // 2)


# -- measured bodies (run inside spawned children) --------------------------


def _cover_bytes(database: TransactionDatabase) -> int:
    """Actual bytes held by the vertical covers, per representation."""
    if database.backend == "roaring":
        return sum(c.byte_size() for c in database.tidsets_view())
    return sum(
        max(1, (c.bit_length() + 7) // 8) for c in database.tidsets_view()
    )


def _result_digest(result) -> str:
    payload = json.dumps(
        {
            "maximal": sorted(result.maximal),
            "negative": sorted(result.negative_border),
            "supports": sorted(result.supports.items()),
            "queries": result.queries,
            "nodes": result.nodes,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def run_build(n_rows: int, n_items: int, seed: int, backend: str) -> dict:
    """Build the dense DB from columnar form; report cover memory."""
    columns = dense_columns(n_rows, n_items, seed)
    universe = Universe(range(n_items))
    started = time.perf_counter()
    database = TransactionDatabase.from_columnar(
        universe, columns, n_rows, backend=backend
    )
    seconds = time.perf_counter() - started
    rng = random.Random(seed + 2)
    masks = [1 << i for i in range(n_items)] + [
        (1 << rng.randrange(n_items)) | (1 << rng.randrange(n_items))
        for _ in range(200)
    ]
    counts = [database.support_count(mask) for mask in masks]
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    return {
        "seconds": seconds,
        "cover_bytes": _cover_bytes(database),
        "digest": digest,
    }


def _eclat_workload(n_rows: int, n_items: int, seed: int, kind: str):
    if kind == "dense":
        return dense_columns(n_rows, n_items, seed), dense_threshold(n_rows)
    columns = sparse_columns(n_rows, n_items, seed)
    return columns, sparse_threshold(n_rows)


def run_eclat(
    n_rows: int, n_items: int, seed: int, backend: str, kind: str
) -> dict:
    """Build + mine on one backend — the per-variant peak-RSS probe."""
    columns, threshold = _eclat_workload(n_rows, n_items, seed, kind)
    database = TransactionDatabase.from_columnar(
        Universe(range(n_items)), columns, n_rows, backend=backend
    )
    result = eclat(database, threshold)
    return {
        "digest": _result_digest(result),
        "threshold": threshold,
        "maximal": len(result.maximal),
        "negative": len(result.negative_border),
    }


def run_eclat_pair(n_rows: int, n_items: int, seed: int, kind: str) -> dict:
    """Both backends interleaved in ONE process — the wall-clock probe.

    A single mine is 20-150 ms at full scale; with each variant in its
    own process, minutes-scale machine drift lands on one side of the
    ratio and swings it ~2x, tripping the regression floor on a healthy
    tree.  Alternating auto/roaring rounds inside one process cancels
    the drift (the PR 8 suite's interleaving trick); best-of-3 per side
    then absorbs scheduler noise.  Peak RSS is NOT meaningful here —
    both representations live in this process — which is what
    :func:`run_eclat` is for.
    """
    columns, threshold = _eclat_workload(n_rows, n_items, seed, kind)
    universe = Universe(range(n_items))
    databases = {
        backend: TransactionDatabase.from_columnar(
            universe, columns, n_rows, backend=backend
        )
        for backend in ("auto", "roaring")
    }
    seconds = {"auto": float("inf"), "roaring": float("inf")}
    digests = {}
    for _ in range(3):
        for backend, database in databases.items():
            started = time.perf_counter()
            result = eclat(database, threshold)
            seconds[backend] = min(
                seconds[backend], time.perf_counter() - started
            )
            digests[backend] = _result_digest(result)
    return {
        "old_seconds": seconds["auto"],
        "new_seconds": seconds["roaring"],
        "outputs_equal": digests["auto"] == digests["roaring"],
    }


_BODIES = {
    "build": run_build,
    "eclat": run_eclat,
    "eclat_pair": run_eclat_pair,
}


def _child(queue, body: str, kwargs: dict) -> None:
    out = _BODIES[body](**kwargs)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    queue.put(out)


def measure(body: str, **kwargs) -> dict:
    """Run one measured body in a fresh spawned process.

    ``spawn`` (not ``fork``) so the child's ``ru_maxrss`` starts from a
    bare interpreter instead of inheriting the parent's touched pages.
    """
    context = multiprocessing.get_context("spawn")
    queue = context.SimpleQueue()
    process = context.Process(target=_child, args=(queue, body, kwargs))
    process.start()
    out = queue.get()
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(
            f"measurement {body}({kwargs}) exited {process.exitcode}"
        )
    return out


# -- suite ------------------------------------------------------------------


def run_suite(params: dict, smoke: bool) -> dict:
    n_rows, n_items, seed = params["n_rows"], params["n_items"], params["seed"]
    workloads = []

    print(f"[1/3] dense cover memory ({n_rows} rows x {n_items} items)")
    tid = measure("build", n_rows=n_rows, n_items=n_items, seed=seed,
                  backend="auto")
    roar = measure("build", n_rows=n_rows, n_items=n_items, seed=seed,
                   backend="roaring")
    ratio = tid["cover_bytes"] / max(1, roar["cover_bytes"])
    workloads.append({
        "name": "scale_dense_cover_memory",
        "params": {
            "n_rows": n_rows, "n_items": n_items, "seed": seed,
            "family": "clustered dense runs + scattered tail",
            "metric": "cover_bytes_ratio",
            "old_cover_bytes": tid["cover_bytes"],
            "new_cover_bytes": roar["cover_bytes"],
            "note": "seconds are from_columnar build times; the gated "
                    "speedup is big-int/roaring total cover bytes",
        },
        "old_seconds": round(tid["seconds"], 4),
        "new_seconds": round(roar["seconds"], 4),
        "old_peak_rss_kb": tid["peak_rss_kb"],
        "new_peak_rss_kb": roar["peak_rss_kb"],
        "speedup": round(ratio, 2),
        "target": 4.0,
        "workers_needed": 1,
        "cpu_gated": False,
        "meets_target": ratio >= 4.0,
        "outputs_equal": tid["digest"] == roar["digest"],
    })

    for index, kind in enumerate(("dense", "sparse"), start=2):
        print(f"[{index}/3] eclat wall-clock ({kind})")
        tid = measure("eclat", n_rows=n_rows, n_items=n_items, seed=seed,
                      backend="auto", kind=kind)
        roar = measure("eclat", n_rows=n_rows, n_items=n_items, seed=seed,
                       backend="roaring", kind=kind)
        pair = measure("eclat_pair", n_rows=n_rows, n_items=n_items,
                       seed=seed, kind=kind)
        speed = pair["old_seconds"] / max(1e-9, pair["new_seconds"])
        # The 1.5x wall-clock bound is a claim about real scale, where
        # per-cover costs dominate; at smoke size big-int ops are
        # near-free and container bookkeeping is pure overhead, so the
        # smoke run only checks bit-identity, not the ratio.
        wall_target = None if smoke else 0.667
        workloads.append({
            "name": f"scale_eclat_{kind}",
            "params": {
                "n_rows": n_rows, "n_items": n_items, "seed": seed,
                "threshold": tid["threshold"],
                "maximal": tid["maximal"],
                "negative": tid["negative"],
                "family": f"{kind} workload, big-int vs roaring "
                          "end-to-end",
                "note": "seconds are best-of-3 from one interleaved "
                        "child (drift-cancelling); RSS columns are from "
                        "the per-backend children",
            },
            "old_seconds": round(pair["old_seconds"], 4),
            "new_seconds": round(pair["new_seconds"], 4),
            "old_peak_rss_kb": tid["peak_rss_kb"],
            "new_peak_rss_kb": roar["peak_rss_kb"],
            "speedup": round(speed, 2),
            "target": wall_target,
            "workers_needed": 1,
            "cpu_gated": False,
            "meets_target": None if smoke else speed >= 0.667,
            "outputs_equal": (
                tid["digest"] == roar["digest"] and pair["outputs_equal"]
            ),
        })

    return {
        "pr": 10,
        "description": (
            "Real-scale roaring-backend suite: cover-memory reduction on "
            "1M x 2K clustered data (gated >=4x vs big-int covers), "
            "end-to-end eclat wall-clock big-int-vs-roaring on dense "
            "and sparse workloads (gated within 1.5x). Deterministic "
            "generators, no network. See benchmarks/bench_scale.py."
        ),
        "available_cpus": os.cpu_count(),
        "smoke": smoke,
        "workloads": workloads,
        "targets_met": all(
            w["meets_target"] is not False and w["outputs_equal"]
            for w in workloads
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="1M+-row roaring backend benchmark suite"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_PR10.json",
        metavar="PATH",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run ({SMOKE['n_rows']} rows instead of "
        f"{FULL['n_rows']}); never commit a smoke report",
    )
    args = parser.parse_args(argv)
    report = run_suite(SMOKE if args.smoke else FULL, smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    for workload in report["workloads"]:
        gate = (
            "-" if workload["meets_target"] is None
            else "PASS" if workload["meets_target"] else "FAIL"
        )
        print(
            f"{workload['name']}: {workload['old_seconds']}s -> "
            f"{workload['new_seconds']}s, speedup {workload['speedup']}x "
            f"(target {workload['target']}, {gate}), rss "
            f"{workload['old_peak_rss_kb']} -> "
            f"{workload['new_peak_rss_kb']} KB, outputs_equal="
            f"{workload['outputs_equal']}"
        )
    print(f"report written to {args.output}")
    return 0 if report["targets_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
