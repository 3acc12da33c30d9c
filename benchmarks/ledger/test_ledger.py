"""Tests of the layer-ledger benchmark (``pytest benchmarks/ledger``).

The smoke runs drive the real command line on tiny inputs; the gate
tests feed each correctness check a tampered result and require it to
be rejected.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import compare
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from benchmarks.ledger.workloads import (
    FdKeys,
    border_errors,
    transversal_errors,
)
from repro.datasets import TransactionDatabase
from repro.mining import eclat
from repro.util import Universe

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_.-")


def _run(*args: str) -> tuple[dict, str]:
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--seed", "7",
         "--seconds", "0.5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=110,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), completed.stdout


def _assert_result_line(line: dict, expected: dict) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    assert set(line["metrics"]) == set(expected)
    for name, (unit, _) in expected.items():
        metric = line["metrics"][name]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and set(n) <= NAME_CHARS for n in names)
    assert SPEC["paths"] == ["benchmarks/ledger"]


def test_smoke_untraced_prints_every_end_to_end_metric():
    line, stdout = _run("--workload", "fd_keys")
    _assert_result_line(line, END_TO_END)
    for name, (unit, _) in END_TO_END.items():
        assert f"{name} " in stdout and f" {unit}\n" in stdout


def test_smoke_all_workloads_untraced():
    line, _ = _run()
    expected = {f"{w}.{name}": spec for w in WORKLOAD_NAMES
                for name, spec in END_TO_END.items()}
    _assert_result_line(line, expected)


def test_smoke_traced_prints_every_per_layer_metric():
    line, stdout = _run("--trace", "1")
    _assert_result_line(line, PER_LAYER)
    for name in PER_LAYER:
        assert f"  {name} " in stdout
    for workload in WORKLOAD_NAMES:
        value = line["metrics"][f"ledger.{workload}.unattributed_frac"]
        assert 0 <= value["value"] <= 0.10


def _small_theory():
    rng = random.Random(3)
    rows = [sum(1 << i for i in range(12) if rng.random() < 0.35)
            for _ in range(400)]
    database = TransactionDatabase(Universe(range(12)), rows)
    return database, eclat(database, 40)


def test_border_gate_accepts_a_true_theory():
    database, result = _small_theory()
    assert border_errors(database, 40, result.interesting, result.maximal,
                         result.negative_border, result.queries) == []


def test_border_gate_rejects_a_dropped_negative_border_member():
    database, result = _small_theory()
    negative = result.negative_border[:-1]
    errors = border_errors(database, 40, result.interesting, result.maximal,
                           negative, result.queries)
    assert any("Bd-" in error for error in errors)


def test_border_gate_rejects_a_dropped_frequent_set():
    database, result = _small_theory()
    top = result.maximal[-1]
    interesting = tuple(m for m in result.interesting if m != top)
    maximal = tuple(m for m in result.maximal if m != top)
    assert border_errors(database, 40, interesting, maximal,
                         result.negative_border, result.queries)


def test_key_gate_rejects_a_removed_key():
    workload = FdKeys()
    inputs = workload.make_inputs(7, Path("."), smoke=True)
    hypergraph, keys = workload.job(workload.setup(inputs))
    payload = workload.payload((hypergraph, keys))
    assert workload.check(inputs, payload) == []
    payload["keys"] = keys[1:]
    assert workload.check(inputs, payload)


def test_key_gate_rejects_a_non_minimal_key():
    edges = [0b011, 0b110]
    assert transversal_errors(edges, [0b010], 1, 10) == []
    assert transversal_errors(edges, [0b011], 1, 10)
    assert transversal_errors(edges, [0b001], 1, 10)


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0 + i * 0.01 for i in range(10)],
         [9.0 + i * 0.01 for i in range(10)], "lower", "improved"),
        ([10.0 + i * 0.01 for i in range(10)],
         [10.5 + i * 0.01 for i in range(10)], "lower", "unchanged"),
        ([10.0 + i * 0.01 for i in range(10)],
         [12.0 + i * 0.01 for i in range(10)], "lower", "regressed"),
        ([8.0, 12.0] * 5, [9.0, 11.5] * 5, "lower", "unresolved"),
        ([10.0 + i * 0.01 for i in range(10)],
         [12.0 + i * 0.01 for i in range(10)], "higher", "improved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.10)["verdict"] == expected


def test_compare_reads_reports_and_bounds(tmp_path):
    def report(job_s: float, seed: int, started: float) -> dict:
        metrics = {"setup_s": 0.4, "job_s": job_s, "peak_rss_mb": 80.0}
        return {"seed": seed, "started": started,
                "workloads": {"fd_keys": {"metrics": metrics}}}

    paths = []
    for side, base in (("PARENT", 1.0), ("CHANGE", 0.8)):
        for i in range(10):
            path = tmp_path / f"{side}-{i:02d}.json"
            # pairs alternate: parent first in even pairs, change in odd
            started = 2 * i + ((side == "CHANGE") != (i % 2 == 1))
            path.write_text(json.dumps(report(base + i * 0.001, i, started)))
            paths.append(str(path))
    assert compare.main(paths) == 0
    loaded = [json.loads(Path(p).read_text()) for p in paths]
    assert compare.pairing_warnings(loaded[:10], loaded[10:]) == []
    assert compare.pairing_warnings(loaded[:10], loaded[:10][::-1])
    rows = compare.compare(loaded[:10], loaded[10:], compare.load_bounds())
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"setup_s": "unchanged", "job_s": "improved",
                        "peak_rss_mb": "unchanged"}
