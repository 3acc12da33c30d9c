"""Tests for the ablation knobs (non-incremental D&A, FK branching rule,
oracle memoization control)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from repro.boolean.dualization import dnf_to_cnf
from repro.boolean.families import threshold_function
from repro.core.oracle import CountingOracle
from repro.datasets.planted import PlantedTheory
from repro.hypergraph.fredman_khachiyan import check_duality
from repro.mining.dualize_advance import dualize_and_advance
from repro.util.bitset import Universe

from tests.conftest import planted_theories


class TestNonIncrementalDualizeAdvance:
    @settings(max_examples=60)
    @given(planted_theories(max_attributes=7))
    @example(PlantedTheory(Universe(range(7)), (20, 25, 44, 100)))
    def test_same_results_and_queries(self, planted):
        """Rebuilding the family each iteration keeps ``MTh`` and
        ``Bd-`` on every engine, and the query count where the rebuild
        folds the same edges in the same order (berge, mmcs).  FK's
        rebuilt family comes in discovery order rather than survivors
        first, so its count may differ: the pinned example makes 30
        queries incremental and 31 rebuilt."""
        for engine in ("fk", "berge", "mmcs"):
            fast = dualize_and_advance(
                planted.universe, planted.is_interesting, engine=engine
            )
            slow = dualize_and_advance(
                planted.universe,
                planted.is_interesting,
                engine=engine,
                incremental=False,
            )
            assert fast.maximal == slow.maximal, engine
            assert fast.negative_border == slow.negative_border, engine
            if engine != "fk":
                assert fast.queries == slow.queries, engine

    @pytest.mark.parametrize("engine", ["fk", "berge"])
    def test_both_engines_support_flag(
        self, engine, figure1_universe, figure1_theory
    ):
        result = dualize_and_advance(
            figure1_universe,
            figure1_theory.is_interesting,
            engine=engine,
            incremental=False,
        )
        assert sorted(
            figure1_universe.label(mask) for mask in result.maximal
        ) == ["ABC", "BD"]


class TestFKVariableRule:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            check_duality([0b1], [0b1], 0b1, variable_rule="coin_flip")

    @pytest.mark.parametrize("rule", ["max_frequency", "lowest_index"])
    def test_rules_certify_true_duals(self, rule):
        f = threshold_function(7, 3)
        g = dnf_to_cnf(f)
        assert (
            check_duality(
                list(f.terms),
                list(g.clauses),
                f.universe.full_mask,
                variable_rule=rule,
            )
            is None
        )

    @pytest.mark.parametrize("rule", ["max_frequency", "lowest_index"])
    def test_rules_refute_broken_duals(self, rule):
        f = threshold_function(6, 3)
        g = dnf_to_cnf(f)
        broken = list(g.clauses)[1:]
        witness = check_duality(
            list(f.terms), broken, f.universe.full_mask, variable_rule=rule
        )
        assert witness is not None
        # The witness must actually violate duality.
        complement = f.universe.full_mask & ~witness.assignment
        g_value = any(t & witness.assignment == t for t in broken)
        f_value = any(t & complement == t for t in f.terms)
        assert g_value == f_value


class TestMemoizationFlag:
    def test_memoized_oracle_evaluates_once(self):
        oracle = CountingOracle(lambda mask: True)
        oracle(1)
        oracle(1)
        assert oracle.evaluations == 1
        assert oracle.total_calls == 2

    def test_unmemoized_oracle_reevaluates(self):
        oracle = CountingOracle(lambda mask: True, memoize=False)
        oracle(1)
        oracle(1)
        assert oracle.evaluations == 2
        assert oracle.distinct_queries == 1

    def test_unmemoized_still_correct(self, figure1_universe, figure1_theory):
        oracle = CountingOracle(figure1_theory.is_interesting, memoize=False)
        result = dualize_and_advance(figure1_universe, oracle)
        assert sorted(
            figure1_universe.label(mask) for mask in result.maximal
        ) == ["ABC", "BD"]
        assert oracle.evaluations >= oracle.distinct_queries

    def test_reset_clears_evaluations(self):
        oracle = CountingOracle(lambda mask: True)
        oracle(1)
        oracle.reset()
        assert oracle.evaluations == 0
