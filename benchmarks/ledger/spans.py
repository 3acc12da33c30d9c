"""Benchmark-side tracing: spans around each call into a layer.

The program is never instrumented here.  A :class:`Ledger` wraps the
benchmark's own calls into ``repro.datasets``, ``repro.mining``,
``repro.hypergraph``, ``repro.parallel`` and ``repro.service`` in
spans, keeps them in memory, and the run writes them out as JSONL when
it ends.  A span's *self time* is its duration minus the part covered
by its child spans; the self time of a job's root span is the part of
the job no layer span accounts for (``ledger.<workload>.unattributed_frac``).

Counts the engines do not return (MMCS search nodes, work steals) come
from :class:`CountingTracer`, passed to the engine on one extra pass
whose wall time is discarded.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

from repro.obs.tracer import Tracer


class Ledger:
    """In-memory span recorder for one workload.

    Each record is ``{"id", "name", "start", "end", "parent",
    "workload", "job"}``; times are seconds from the ledger's creation.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: int):
        record = {
            "id": len(self.records),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "job": job,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._origin


def self_times(records: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children of one span run one after another (the benchmark is
    sequential inside a job), so the covered part is their sum.
    """
    own = {r["id"]: r["end"] - r["start"] for r in records}
    for record in records:
        if record["parent"] is not None:
            own[record["parent"]] -= record["end"] - record["start"]
    return own


def unattributed_frac(records: list[dict], root: str = "job") -> float:
    """Share of root-span time that no child span covers."""
    own = self_times(records)
    roots = [r for r in records if r["name"] == root]
    total = sum(r["end"] - r["start"] for r in roots)
    return sum(own[r["id"]] for r in roots) / total


def median_of(records: list[dict], name: str) -> float:
    """Median duration of the spans called ``name``."""
    return statistics.median(
        r["end"] - r["start"] for r in records if r["name"] == name
    )


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


class CountingTracer(Tracer):
    """Counts events by name and keeps the last attributes of each."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.last: dict[str, dict] = {}

    def event(self, name: str, **attrs) -> None:
        self.counts[name] += 1
        self.last[name] = attrs
