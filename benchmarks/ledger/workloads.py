"""The three batch workloads: ``fimi_100k``, ``fd_keys``, ``parallel_2w``.

Each workload is split the same way:

* ``make_inputs`` (parent process) turns the run seed into plain inputs
  — a file path or lists of rows — with :mod:`benchmarks.ledger.inputs`;
* ``setup`` (spawned child) builds the program objects a user would
  hold before the first operation; the time from spawn to the end of
  ``setup`` is ``setup_s``;
* ``job`` (child) is one timed operation, optionally wrapped in ledger
  spans, one per layer call;
* ``payload``/``fingerprint`` (child) reduce a job's result to what the
  parent checks and to a small value later jobs must reproduce;
* ``check`` (parent) is the correctness gate;
* ``layers`` (child, traced run only) derives the per-layer metrics
  from the spans plus any extra passes.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import time
from pathlib import Path

from benchmarks.ledger.inputs import (
    BasketShape,
    RelationShape,
    SkewedShape,
    derive_seed,
    relation_rows,
    skewed_rows,
    write_baskets,
)
from benchmarks.ledger.spans import CountingTracer, Ledger, median_of
from repro.datasets import Relation, TransactionDatabase, read_fimi_stream
from repro.hypergraph import Hypergraph, minimal_transversals
from repro.mining import eclat
from repro.parallel import ShmVerticalStore, WorkerPool
from repro.util import Universe
from repro.util.bitset import popcount

_MB = float(1 << 20)


class _NoLedger:
    """Stands in for a :class:`Ledger` on untraced jobs."""

    def span(self, name: str, job: int):
        return contextlib.nullcontext()


NULL_LEDGER = _NoLedger()


def _timed(call, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


# -- the Corollary 4 gate ----------------------------------------------------


def _parents(mask: int):
    remaining = mask
    while remaining:
        low = remaining & -remaining
        yield mask ^ low
        remaining ^= low


def border_errors(database, threshold: int, interesting, maximal, negative,
                  queries: int) -> list[str]:
    """Check a mined theory against its borders (Corollary 4).

    ``Th`` must be downward closed with ``Bd+`` as its maximal sets;
    every ``Bd+`` member frequent; ``Bd-`` exactly the sets outside
    ``Th`` whose immediate subsets are all in ``Th`` (built here by the
    levelwise prefix join), each infrequent; and the engine must have
    spent at least ``|Th| + |Bd-|`` queries (Theorem 10).  Together
    these certify ``Th`` is exactly the frequent family.
    """
    errors: list[str] = []
    theory = set(interesting)
    if 0 not in theory:
        errors.append("Th lacks the empty set")
    if any(p not in theory for m in theory for p in _parents(m)):
        errors.append("Th is not downward closed")
    covered = {p for m in theory for p in _parents(m)}
    if sorted(m for m in theory if m not in covered) != sorted(maximal):
        errors.append("Bd+ is not the maximal sets of Th")
    by_prefix: dict[int, list[int]] = {}
    for mask in theory:
        if mask:
            top = 1 << (mask.bit_length() - 1)
            by_prefix.setdefault(mask ^ top, []).append(top)
    expected: set[int] = set()
    n_items = len(database.universe)
    if 0 in theory:
        singletons = {1 << i for i in range(n_items)}
        expected.update(singletons - theory)
    for prefix, tops in by_prefix.items():
        tops.sort()
        for a in range(len(tops)):
            for b in range(a + 1, len(tops)):
                candidate = prefix | tops[a] | tops[b]
                if candidate not in theory and all(
                    p in theory for p in _parents(candidate)
                ):
                    expected.add(candidate)
    if expected != set(negative):
        missing = len(expected - set(negative))
        extra = len(set(negative) - expected)
        errors.append(f"Bd- differs from the one Th implies "
                      f"({missing} missing, {extra} extra)")
    if any(s < threshold for s in database.support_counts(list(maximal))):
        errors.append("a Bd+ member is infrequent")
    if any(s >= threshold for s in database.support_counts(list(negative))):
        errors.append("a Bd- member is frequent")
    if queries < len(theory) + len(negative):
        errors.append(f"queries {queries} below |Th|+|Bd-| "
                      f"{len(theory) + len(negative)}")
    return errors


def transversal_errors(edges, keys, expected_count: int, sample: int,
                       seed: int = 0) -> list[str]:
    """Sampled keys must hit every edge and be minimal; count must match."""
    errors: list[str] = []
    if len(keys) != expected_count:
        errors.append(f"{len(keys)} keys, expected {expected_count}")
    picked = random.Random(seed).sample(list(keys), min(sample, len(keys)))
    for key in picked:
        private = 0
        for edge in edges:
            hit = edge & key
            if not hit:
                errors.append(f"key {key:#x} misses edge {edge:#x}")
                return errors
            if hit & (hit - 1) == 0:
                private |= hit
        if private != key:
            errors.append(f"key {key:#x} is not minimal")
            return errors
    return errors


# -- fimi_100k ---------------------------------------------------------------


class Fimi:
    """Streamed FIMI ingestion, then Eclat at 0.7% support."""

    name = "fimi_100k"
    #: Above the noise items' ~0.5% support, so the frequent items are the
    #: pattern items on every seed and the cost does not hinge on which
    #: noise items cross the line.
    MIN_SUPPORT = 0.007
    FULL = BasketShape(500, 100_000, 100, 4.0, 0.25, 3.0, shape_seed=9711)
    SMOKE = BasketShape(100, 4_000, 20, 4.0, 0.25, 3.0, shape_seed=9711)
    AND_SAMPLE = 20_000

    def make_inputs(self, seed: int, workdir: Path, smoke: bool) -> dict:
        path = workdir / "fimi.dat"
        write_baskets(path, self.SMOKE if smoke else self.FULL,
                      derive_seed(seed, self.name))
        return {"path": str(path)}

    def setup(self, inputs: dict) -> dict:
        return dict(inputs)

    def job(self, state: dict, ledger=NULL_LEDGER, index: int = 0):
        with ledger.span("datasets.read", index):
            database = read_fimi_stream(state["path"])
        with ledger.span("mining.eclat", index):
            result = eclat(database, self.MIN_SUPPORT)
        return database, result

    def payload(self, outcome) -> dict:
        _, result = outcome
        return {
            "threshold": result.min_support,
            "interesting": result.interesting,
            "maximal": result.maximal,
            "negative": result.negative_border,
            "queries": result.queries,
        }

    def fingerprint(self, outcome) -> int:
        _, result = outcome
        return hash((result.interesting, result.maximal,
                     result.negative_border, result.queries))

    def check(self, inputs: dict, payload: dict) -> list[str]:
        database = read_fimi_stream(inputs["path"])
        return border_errors(database, payload["threshold"],
                             payload["interesting"], payload["maximal"],
                             payload["negative"], payload["queries"])

    def layers(self, state: dict, outcome, ledger: Ledger) -> dict:
        database, result = outcome
        records = ledger.records
        read_s = median_of(records, "datasets.read")
        eclat_s = median_of(records, "mining.eclat")
        pairs = [m for m in (*result.interesting, *result.negative_border)
                 if popcount(m) == 2]
        step = max(1, len(pairs) // self.AND_SAMPLE)
        sample = pairs[::step]
        tidset = database.tidset

        def and_pass():
            for mask in sample:
                tidset(mask)

        and_us = _timed(and_pass, 3) / len(sample) * 1e6
        thm10 = len(result.interesting) + len(result.negative_border)
        covers = sum(max(1, (c.bit_length() + 7) // 8)
                     for c in database.tidsets_view())
        return {
            "datasets.read_s": read_s,
            "datasets.rows_per_s": database.n_transactions / read_s,
            "datasets.cover_mb": covers / _MB,
            "datasets.and_us": and_us,
            "mining.eclat_s": eclat_s,
            "mining.queries": result.queries,
            "mining.thm10_queries": thm10,
            "mining.query_excess": result.queries / thm10,
            "mining.nodes": result.nodes,
            "mining.overhead_s": eclat_s - result.queries * and_us * 1e-6,
        }


# -- fd_keys -----------------------------------------------------------------


def _key_hypergraph(universe: Universe, agree: list[int]) -> Hypergraph:
    """Complements of the maximal agree sets: the minimal keys are its
    minimal transversals."""
    full = universe.full_mask
    return Hypergraph(universe, [full & ~mask for mask in agree])


class FdKeys:
    """Minimal-key discovery: agree sets, then MMCS transversals."""

    name = "fd_keys"
    FULL = RelationShape(22, 70, 3, shape_seed=1)
    SMOKE = RelationShape(14, 30, 3, shape_seed=1)
    #: |Tr(H)| of each shape; seeds only reorder rows and relabel values.
    KEYS = {FULL: 32_117, SMOKE: 579}
    SAMPLE = 1000

    def shape(self, smoke: bool) -> RelationShape:
        return self.SMOKE if smoke else self.FULL

    def make_inputs(self, seed: int, workdir: Path, smoke: bool) -> dict:
        shape = self.shape(smoke)
        return {
            "n_attributes": shape.n_attributes,
            "rows": relation_rows(shape, derive_seed(seed, self.name)),
            "expected_keys": self.KEYS[shape],
        }

    def setup(self, inputs: dict) -> dict:
        return {"relation": Relation(range(inputs["n_attributes"]),
                                     inputs["rows"])}

    def job(self, state: dict, ledger=NULL_LEDGER, index: int = 0):
        relation = state["relation"]
        with ledger.span("datasets.agree", index):
            agree = relation.maximal_agree_set_masks()
        with ledger.span("hypergraph.build", index):
            hypergraph = _key_hypergraph(relation.universe, agree)
        with ledger.span("hypergraph.mmcs", index):
            keys = minimal_transversals(hypergraph, method="mmcs")
        return hypergraph, keys

    def payload(self, outcome) -> dict:
        hypergraph, keys = outcome
        return {"edges": list(hypergraph.edge_masks), "keys": keys}

    def fingerprint(self, outcome) -> int:
        return hash(tuple(outcome[1]))

    def check(self, inputs: dict, payload: dict) -> list[str]:
        return transversal_errors(payload["edges"], payload["keys"],
                                  inputs["expected_keys"], self.SAMPLE)

    def layers(self, state: dict, outcome, ledger: Ledger) -> dict:
        hypergraph, keys = outcome
        counter = CountingTracer()
        minimal_transversals(hypergraph, method="mmcs", tracer=counter)
        nodes = counter.last["mmcs.done"]["nodes"]
        mmcs_s = median_of(ledger.records, "hypergraph.mmcs")
        return {
            "datasets.agree_s": median_of(ledger.records, "datasets.agree"),
            "hypergraph.mmcs_s": mmcs_s,
            "hypergraph.us_per_output": mmcs_s / len(keys) * 1e6,
            "hypergraph.nodes": nodes,
            "hypergraph.nodes_per_output": nodes / len(keys),
            "hypergraph.edges": len(hypergraph.edge_masks),
            "hypergraph.outputs": len(keys),
        }


# -- parallel_2w -------------------------------------------------------------


class Parallel2w:
    """Eclat and MMCS at two workers over the shared-memory pool."""

    name = "parallel_2w"
    WORKERS = 2
    FULL = (SkewedShape(48, 16, 8_000, 0.8, 0.035), 500)
    SMOKE = (SkewedShape(32, 10, 3_000, 0.8, 0.035), 190)

    def make_inputs(self, seed: int, workdir: Path, smoke: bool) -> dict:
        shape, threshold = self.SMOKE if smoke else self.FULL
        relation = FdKeys().shape(smoke)
        return {
            "n_items": shape.n_items,
            "rows": skewed_rows(shape, derive_seed(seed, self.name)),
            "threshold": threshold,
            "n_attributes": relation.n_attributes,
            "relation_rows": relation_rows(relation,
                                           derive_seed(seed, self.name)),
            "expected_keys": FdKeys.KEYS[relation],
        }

    def setup(self, inputs: dict) -> dict:
        relation = Relation(range(inputs["n_attributes"]),
                            inputs["relation_rows"])
        return {
            "database": TransactionDatabase(
                Universe(range(inputs["n_items"])), inputs["rows"]
            ),
            "threshold": inputs["threshold"],
            "hypergraph": _key_hypergraph(
                relation.universe, relation.maximal_agree_set_masks()
            ),
        }

    def job(self, state: dict, ledger=NULL_LEDGER, index: int = 0):
        with ledger.span("parallel.eclat_2w", index):
            mined = eclat(state["database"], state["threshold"],
                          workers=self.WORKERS)
        with ledger.span("parallel.mmcs_2w", index):
            keys = minimal_transversals(state["hypergraph"], method="mmcs",
                                        workers=self.WORKERS)
        return mined, keys

    def payload(self, outcome) -> dict:
        mined, keys = outcome
        return {"mined": mined, "keys": keys}

    def fingerprint(self, outcome) -> int:
        mined, keys = outcome
        return hash((mined.interesting, mined.maximal, mined.negative_border,
                     mined.queries, mined.nodes, tuple(keys)))

    def check(self, inputs: dict, payload: dict) -> list[str]:
        state = self.setup(inputs)
        errors: list[str] = []
        mined = payload["mined"]
        serial = eclat(state["database"], state["threshold"])
        if serial != mined or serial.supports != mined.supports:
            errors.append("2-worker eclat differs from serial")
        keys = minimal_transversals(state["hypergraph"], method="mmcs")
        if keys != payload["keys"]:
            errors.append("2-worker MMCS differs from serial")
        if len(keys) != inputs["expected_keys"]:
            errors.append(f"{len(keys)} keys, expected "
                          f"{inputs['expected_keys']}")
        return errors

    def layers(self, state: dict, outcome, ledger: Ledger) -> dict:
        database, threshold = state["database"], state["threshold"]
        hypergraph = state["hypergraph"]
        eclat_2w = median_of(ledger.records, "parallel.eclat_2w")
        mmcs_2w = median_of(ledger.records, "parallel.mmcs_2w")
        eclat_1w = _timed(lambda: eclat(database, threshold), 2)
        mmcs_1w = _timed(
            lambda: minimal_transversals(hypergraph, method="mmcs"), 2
        )

        def pool_cycle():
            # The executor forks lazily: one task per worker makes the
            # cycle pay for live processes, as an engine run does.
            with WorkerPool(self.WORKERS) as pool:
                for future in [pool.submit(os.getpid)
                               for _ in range(self.WORKERS)]:
                    future.result()

        def publish_cycle():
            ShmVerticalStore.publish(database).unlink()

        counter = CountingTracer()
        eclat(database, threshold, workers=self.WORKERS, tracer=counter)
        minimal_transversals(hypergraph, method="mmcs", workers=self.WORKERS,
                             tracer=counter)
        return {
            "parallel.eclat_2w_s": eclat_2w,
            "parallel.mmcs_2w_s": mmcs_2w,
            "mining.eclat_serial_s": eclat_1w,
            "hypergraph.mmcs_serial_s": mmcs_1w,
            "parallel.eclat_speedup": eclat_1w / eclat_2w,
            "parallel.mmcs_speedup": mmcs_1w / mmcs_2w,
            "parallel.overhead_s": (eclat_2w - eclat_1w / self.WORKERS)
            + (mmcs_2w - mmcs_1w / self.WORKERS),
            "parallel.pool_start_s": _timed(pool_cycle, 3),
            "parallel.shm_publish_s": _timed(publish_cycle, 3),
            "parallel.steals": counter.counts["worker.steal"],
        }


BATCH_WORKLOADS = {w.name: w for w in (Fimi(), FdKeys(), Parallel2w())}
