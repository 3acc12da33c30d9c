"""Metric names, units and directions printed by the ledger.

``BENCHMARK.json`` at the repository root lists the same names with the
regression bounds; ``test_ledger.py`` keeps the two in step.
"""

from __future__ import annotations

#: name -> (unit, better).  Every workload reports each of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

WORKLOAD_NAMES = ("fimi_100k", "fd_keys", "parallel_2w", "serve_mixed")

_PER_LAYER = [
    # fimi_100k
    ("datasets.read_s", "s", "lower"),
    ("datasets.rows_per_s", "1/s", "higher"),
    ("datasets.cover_mb", "MB", "lower"),
    ("datasets.and_us", "us", "lower"),
    ("mining.eclat_s", "s", "lower"),
    ("mining.queries", "count", "lower"),
    ("mining.thm10_queries", "count", "lower"),
    ("mining.query_excess", "ratio", "lower"),
    ("mining.nodes", "count", "lower"),
    ("mining.overhead_s", "s", "lower"),
    # fd_keys
    ("datasets.agree_s", "s", "lower"),
    ("hypergraph.mmcs_s", "s", "lower"),
    ("hypergraph.us_per_output", "us", "lower"),
    ("hypergraph.nodes", "count", "lower"),
    ("hypergraph.nodes_per_output", "ratio", "lower"),
    ("hypergraph.edges", "count", "lower"),
    ("hypergraph.outputs", "count", "higher"),
    # parallel_2w
    ("parallel.eclat_2w_s", "s", "lower"),
    ("parallel.mmcs_2w_s", "s", "lower"),
    ("mining.eclat_serial_s", "s", "lower"),
    ("hypergraph.mmcs_serial_s", "s", "lower"),
    ("parallel.eclat_speedup", "ratio", "higher"),
    ("parallel.mmcs_speedup", "ratio", "higher"),
    ("parallel.overhead_s", "s", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.shm_publish_s", "s", "lower"),
    ("parallel.steals", "count", "lower"),
    # serve_mixed: in-process twin
    ("service.append_ms", "ms", "lower"),
    ("service.repair_ms", "ms", "lower"),
    ("service.wal_ms", "ms", "lower"),
    ("service.append_other_ms", "ms", "lower"),
    ("service.threshold_ms", "ms", "lower"),
    ("service.remines", "count", "lower"),
    ("service.evaluated", "count", "lower"),
    ("service.mine_hot_ms", "ms", "lower"),
    ("service.member_us", "us", "lower"),
    ("service.mine_cold_ms", "ms", "lower"),
    # serve_mixed: the server's /metrics and the HTTP client
    ("service.wal_fsync_mean_ms", "ms", "lower"),
    ("service.compactions", "count", "lower"),
    ("service.http_overhead_ms", "ms", "lower"),
    ("service.shed", "count", "lower"),
    ("http.req_per_s", "1/s", "higher"),
    ("http.read_p50_ms", "ms", "lower"),
    ("http.read_p95_ms", "ms", "lower"),
    ("http.write_p50_ms", "ms", "lower"),
    ("http.write_p95_ms", "ms", "lower"),
    ("http.cold_mine_p50_ms", "ms", "lower"),
]
_PER_LAYER += [
    (f"ledger.{workload}.{name}", unit, "lower")
    for workload in WORKLOAD_NAMES
    for name, unit in (("unattributed_frac", "fraction"),
                       ("trace_overhead", "ratio"))
]

#: name -> (unit, better).  A traced run reports all of them, for all
#: four workloads (see README.md).
PER_LAYER = {name: (unit, better) for name, unit, better in _PER_LAYER}
