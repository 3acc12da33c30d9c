"""The MMCS enumerator and its contracts.

The transversal core rests on three claims, each property-tested here
against the established engines:

* **output identity** — ``mmcs`` returns exactly the same sorted
  family as Berge, FK and levelwise on random simple hypergraphs,
  serially and through depth-2 subtree tasks at any worker
  count;
* **budget honesty** — a tripped :class:`Budget` surfaces a
  :class:`PartialDualization` whose family is a genuine subset of
  ``Tr(H)``, deterministically;
* **certified traces** — every traced run passes the
  :class:`TheoremMonitor` checks (``mmcs_outputs``, ``mmcs_antichain``,
  ``mmcs_nodes``), offline replay included, and a tampered trace is
  flagged.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BudgetExhausted
from repro.datasets.relations import Relation
from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.enumeration import (
    brute_force_transversal_masks,
    minimal_transversals,
)
from repro.hypergraph.hypergraph import Hypergraph, minimize_family
from repro.hypergraph.mmcs import _enumerate, mmcs_transversal_masks
from repro.obs import JsonlTraceWriter, MultiTracer, TheoremMonitor
from repro.obs.tracer import Tracer
from repro.parallel.mmcs import mmcs_transversals_parallel
from repro.runtime.budget import Budget
from repro.util.bitset import Universe, popcount

from tests.conftest import mask_families, simple_hypergraphs

def _canonical(masks) -> list[int]:
    return sorted(masks, key=lambda mask: (popcount(mask), mask))


def _digest(masks) -> str:
    return hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()


def _fd_key_edges() -> list[int]:
    """Agree-set complements of a fixed 30-row, 14-attribute relation
    over 3 values: its minimal keys are the minimal transversals (the
    data-profiling shape MMCS is kept for)."""
    rng = random.Random(1)
    rows = [tuple(rng.randrange(3) for _ in range(14)) for _ in range(30)]
    relation = Relation(range(14), rows)
    full = relation.universe.full_mask
    return [full & ~mask for mask in relation.maximal_agree_set_masks()]


class TestOutputIdentity:
    @settings(max_examples=250, deadline=None)
    @given(simple_hypergraphs())
    def test_mmcs_matches_brute_force(self, hypergraph):
        reference = sorted(
            brute_force_transversal_masks(
                hypergraph.edge_masks, len(hypergraph.universe)
            )
        )
        assert sorted(mmcs_transversal_masks(hypergraph.edge_masks)) == (
            reference
        )

    @settings(max_examples=150, deadline=None)
    @given(simple_hypergraphs())
    def test_all_four_methods_identical_through_enumeration_api(
        self, hypergraph
    ):
        families = {
            method: minimal_transversals(hypergraph, method=method)
            for method in ("berge", "fk", "mmcs", "levelwise")
        }
        assert len({tuple(sorted(f)) for f in families.values()}) == 1

    def test_removed_dfs_method_is_rejected(self):
        hypergraph = Hypergraph.from_sets([{0, 1}, {1, 2}], Universe(range(3)))
        with pytest.raises(ValueError, match="expected one of") as caught:
            minimal_transversals(hypergraph, method="dfs")
        for method in ("berge", "fk", "mmcs", "levelwise", "brute"):
            assert repr(method) in str(caught.value)

    @settings(max_examples=150, deadline=None)
    @given(simple_hypergraphs())
    def test_output_order_is_cardinality_then_value(self, hypergraph):
        family = mmcs_transversal_masks(hypergraph.edge_masks)
        assert family == _canonical(family)
        assert family == berge_transversal_masks(hypergraph.edge_masks)

    @settings(max_examples=150, deadline=None)
    @given(simple_hypergraphs())
    def test_every_output_is_minimal_and_duplicate_free(self, hypergraph):
        family = mmcs_transversal_masks(hypergraph.edge_masks)
        assert len(family) == len(set(family))
        for mask in family:
            assert hypergraph.is_minimal_transversal(mask)

    @settings(max_examples=150, deadline=None)
    @given(mask_families(max_vertices=7))
    def test_invariant_under_minimization(self, data):
        _, family = data
        assert mmcs_transversal_masks(family) == mmcs_transversal_masks(
            minimize_family(family)
        )

    def test_degenerate_contracts(self):
        # Empty family: the empty set hits everything vacuously.
        assert mmcs_transversal_masks([]) == [0]
        # An empty edge can never be hit: no transversals.
        assert mmcs_transversal_masks([0, 3]) == []
        assert mmcs_transversal_masks([0]) == []


class TestParallelDriver:
    @settings(max_examples=60, deadline=None)
    @given(hypergraph=simple_hypergraphs())
    def test_workers_output_identical_to_serial(
        self, worker_count, hypergraph
    ):
        serial = mmcs_transversal_masks(hypergraph.edge_masks)
        parallel = mmcs_transversals_parallel(
            hypergraph.edge_masks, workers=worker_count
        )
        assert parallel == serial

    def test_one_worker_pool_event_per_run(self, worker_count):
        # The pool emits ``worker.pool`` once per (re)spawn; the engine
        # adds none of its own.
        class _Counter(Tracer):
            def __init__(self):
                self.counts: Counter = Counter()

            def event(self, name, **attrs):
                self.counts[name] += 1

        counter = _Counter()
        hypergraph = Hypergraph(
            Universe(range(4)), [0b0011, 0b0110, 0b1100, 0b1001]
        )
        family = minimal_transversals(
            hypergraph, method="mmcs", workers=worker_count, tracer=counter
        )
        assert family == mmcs_transversal_masks(hypergraph.edge_masks)
        assert counter.counts["worker.pool"] == 1

    def test_workers_one_is_the_serial_path(self):
        edges = [0b011, 0b110, 0b101]
        assert mmcs_transversals_parallel(
            edges, workers=1
        ) == mmcs_transversal_masks(edges)


class TestPinnedSearch:
    """The traversal itself, not only its sorted output.

    Node count, discovery order and budget partials on one FD-shaped
    hypergraph are literals recorded from the rollback-list kernel, so
    a change to edge choice, branch order or pruning fails here even
    when the sorted family stays the same.
    """

    def test_node_count_and_discovery_order(self):
        edges = _fd_key_edges()
        assert len(edges) == 119
        found, nodes = _enumerate(edges, None, None)
        assert nodes == 1050
        assert len(found) == 579
        assert found[:8] == [9747, 1559, 1685, 9749, 5269, 5777, 12309, 12435]
        assert _digest(found) == (
            "d1062cbdd618bf753e2cd47273b674eadb40d9e42f5203869ebdc49beffb7799"
        )

    @pytest.mark.parametrize(
        "max_family, size, family",
        [
            (1, 2, (1559, 9747)),
            (3, 4, (1559, 1685, 9747, 9749)),
            (
                10,
                11,
                "7d6122908aa7a6949a731e3dc1e828c6"
                "0028a7f12822a42422444cd34d61e4b4",
            ),
            (
                100,
                101,
                "16cdbf4e5f630ed0509fdf72b242fe4a"
                "4efd3405765d5cd532e41c3ba5cd1059",
            ),
        ],
    )
    def test_budget_partial_family(self, max_family, size, family):
        with pytest.raises(BudgetExhausted) as caught:
            mmcs_transversal_masks(
                _fd_key_edges(), budget=Budget(max_family=max_family)
            )
        partial = caught.value.partial.family
        assert len(partial) == size
        if isinstance(family, tuple):
            assert partial == family
        else:
            assert _digest(partial) == family


class TestBudgets:
    @settings(max_examples=100, deadline=None)
    @given(simple_hypergraphs(), st.integers(1, 4))
    def test_partial_family_is_a_transversal_prefix(
        self, hypergraph, max_family
    ):
        full = set(mmcs_transversal_masks(hypergraph.edge_masks))
        try:
            family = mmcs_transversal_masks(
                hypergraph.edge_masks, budget=Budget(max_family=max_family)
            )
        except BudgetExhausted as exhausted:
            partial = exhausted.partial
            assert partial is not None
            assert exhausted.reason == "family"
            assert set(partial.family) <= full
            assert tuple(partial.processed_edges) == tuple(
                hypergraph.edge_masks
            )
        else:
            assert len(family) <= max_family or set(family) == full

    @settings(max_examples=50, deadline=None)
    @given(simple_hypergraphs())
    def test_budget_cut_is_deterministic(self, hypergraph):
        def cut():
            try:
                mmcs_transversal_masks(
                    hypergraph.edge_masks, budget=Budget(max_family=1)
                )
            except BudgetExhausted as exhausted:
                return tuple(exhausted.partial.family)
            return None

        assert cut() == cut()

    @settings(max_examples=25, deadline=None)
    @given(hypergraph=simple_hypergraphs())
    def test_parallel_budget_partial_is_certified_subset(
        self, worker_count, hypergraph
    ):
        full = set(mmcs_transversal_masks(hypergraph.edge_masks))
        monitor = TheoremMonitor()
        try:
            mmcs_transversals_parallel(
                hypergraph.edge_masks,
                workers=worker_count,
                budget=Budget(max_family=1),
                tracer=monitor,
            )
        except BudgetExhausted as exhausted:
            assert set(exhausted.partial.family) <= full
        # Partial or not, the emitted trace must self-certify.
        report = monitor.report()
        assert report.ok, report.violations


class TestCertifiedTraces:
    def _traced_records(self, edge_masks):
        buffer = io.StringIO()
        monitor = TheoremMonitor()
        with JsonlTraceWriter(buffer) as writer:
            family = mmcs_transversal_masks(
                edge_masks, tracer=MultiTracer(writer, monitor)
            )
        records = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if line
        ]
        return family, monitor, records

    @settings(max_examples=60, deadline=None)
    @given(simple_hypergraphs())
    def test_live_and_offline_certification(self, hypergraph):
        family, monitor, records = self._traced_records(
            hypergraph.edge_masks
        )
        live = monitor.report()
        assert live.ok, live.violations
        assert live.certified("mmcs_outputs")
        assert live.certified("mmcs_antichain")
        assert live.certified("mmcs_nodes")
        replayed = TheoremMonitor.from_trace(records).report()
        assert replayed.ok, replayed.violations
        outputs = [
            record["attrs"]["mask"]
            for record in records
            if record["name"] == "mmcs.output"
        ]
        assert sorted(outputs) == sorted(family)

    def test_dropped_output_event_is_flagged(self):
        _, _, records = self._traced_records([0b011, 0b110, 0b101])
        drop = next(
            index
            for index, record in enumerate(records)
            if record["name"] == "mmcs.output"
        )
        corrupted = records[:drop] + records[drop + 1 :]
        report = TheoremMonitor.from_trace(corrupted).report()
        assert not report.ok
        assert not report.certified("mmcs_outputs")

    def test_forged_nonminimal_output_breaks_the_antichain(self):
        _, _, records = self._traced_records([0b011, 0b110, 0b101])
        first_output = next(
            r for r in records if r["name"] == "mmcs.output"
        )
        done_index = next(
            i for i, r in enumerate(records) if r["name"] == "mmcs.done"
        )
        # Forge an output claiming a strict superset of a real
        # transversal, and bump the reported family size so the output
        # count still reconciles — only the antichain check can object.
        forged = dict(first_output)
        forged["attrs"] = dict(
            first_output["attrs"], mask=first_output["attrs"]["mask"] | 0b111
        )
        done = dict(records[done_index])
        done["attrs"] = dict(
            done["attrs"], family=done["attrs"]["family"] + 1
        )
        corrupted = [
            *records[:done_index],
            forged,
            done,
            *records[done_index + 1 :],
        ]
        report = TheoremMonitor.from_trace(corrupted).report()
        assert not report.certified("mmcs_antichain")
