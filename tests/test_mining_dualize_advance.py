"""Tests for Algorithm 16 (Dualize and Advance): Example 17, Lemma 20,
Theorem 21."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.oracle import CountingOracle
from repro.core.theory import compute_theory_brute_force
from repro.mining.bounds import (
    lemma20_enumeration_bound,
    theorem21_dualize_advance_bound,
)
from repro.mining.dualize_advance import dualize_and_advance
from repro.util.bitset import Universe

from tests.conftest import labels, planted_theories


class TestExample17:
    """The worked Figure 1 run of the paper's Example 17."""

    def test_final_borders(self, figure1_universe, figure1_theory):
        result = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting
        )
        assert labels(figure1_universe, result.maximal) == ["ABC", "BD"]
        assert labels(figure1_universe, result.negative_border) == ["AD", "CD"]

    def test_finds_abc_then_bd(self, figure1_universe, figure1_theory):
        """With the deterministic extension order the first maximal set
        is ABC (greedy from ∅: add A, B, C; D fails) and the second BD —
        matching the paper's narrative."""
        result = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting
        )
        new_sets = [
            step.new_maximal
            for step in result.iterations
            if step.new_maximal is not None
        ]
        assert labels(figure1_universe, new_sets[:1]) == ["ABC"]
        assert labels(figure1_universe, new_sets[1:2]) == ["BD"]

    def test_iteration_count_is_mth_plus_final_check(
        self, figure1_universe, figure1_theory
    ):
        result = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting
        )
        assert len(result.iterations) == len(result.maximal) + 1

    @pytest.mark.parametrize("engine", ["fk", "berge"])
    def test_engines_agree(self, engine, figure1_universe, figure1_theory):
        result = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting, engine=engine
        )
        assert labels(figure1_universe, result.maximal) == ["ABC", "BD"]
        assert labels(figure1_universe, result.negative_border) == ["AD", "CD"]


class TestEdgeCases:
    def test_empty_theory(self):
        universe = Universe("ABC")
        result = dualize_and_advance(universe, lambda mask: False)
        assert result.maximal == ()
        assert result.negative_border == (0,)
        assert result.queries == 1

    def test_full_theory(self):
        universe = Universe("ABC")
        result = dualize_and_advance(universe, lambda mask: True)
        assert result.maximal == (0b111,)
        assert result.negative_border == ()
        # Queries: ∅ plus the three greedy extensions.
        assert result.queries == 4

    def test_only_empty_set_interesting(self):
        universe = Universe("ABC")
        result = dualize_and_advance(universe, lambda mask: mask == 0)
        assert result.maximal == (0,)
        assert sorted(result.negative_border) == [0b001, 0b010, 0b100]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            dualize_and_advance(Universe("A"), lambda mask: True, engine="x")

    def test_shuffle_is_reproducible(self, figure1_universe, figure1_theory):
        a = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting, shuffle=5
        )
        b = dualize_and_advance(
            figure1_universe, figure1_theory.is_interesting, shuffle=5
        )
        assert a.maximal == b.maximal
        assert a.queries == b.queries


class TestCorrectnessProperty:
    @settings(max_examples=120)
    @given(planted_theories())
    def test_matches_brute_force_fk(self, planted):
        ground = compute_theory_brute_force(
            planted.universe, planted.is_interesting
        )
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        assert result.maximal == ground.maximal
        assert result.negative_border == ground.negative_border

    @settings(max_examples=80)
    @given(planted_theories(max_attributes=7))
    def test_matches_brute_force_berge(self, planted):
        ground = compute_theory_brute_force(
            planted.universe, planted.is_interesting
        )
        result = dualize_and_advance(
            planted.universe, planted.is_interesting, engine="berge"
        )
        assert result.maximal == ground.maximal
        assert result.negative_border == ground.negative_border


class TestComplexityBounds:
    @settings(max_examples=120)
    @given(planted_theories())
    def test_lemma20_per_iteration_enumeration(self, planted):
        """Each iteration probes ≤ |Bd-(MTh)| sets before the
        counterexample (i.e. ≤ |Bd-| + 1 including it)."""
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        bound = lemma20_enumeration_bound(len(result.negative_border))
        for step in result.iterations:
            assert step.enumerated <= bound

    @settings(max_examples=120)
    @given(planted_theories())
    def test_theorem21_total_queries(self, planted):
        """Total queries ≤ |MTh| · (|Bd-| + rank·width)."""
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        n_maximal = max(1, len(result.maximal))
        bound = theorem21_dualize_advance_bound(
            n_maximal,
            len(result.negative_border),
            result.rank(),
            len(planted.universe),
        )
        # The +1 final certification iteration re-probes Bd-, and the
        # initial ∅ probe adds one; the paper's bound absorbs both for
        # non-degenerate instances, but we keep the slack explicit.
        slack = len(result.negative_border) + 1
        assert result.queries <= bound + slack

    @settings(max_examples=100)
    @given(planted_theories())
    def test_iterations_equal_mth_plus_one(self, planted):
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        if result.maximal:
            assert len(result.iterations) == len(result.maximal) + 1
        else:
            assert len(result.iterations) == 1

    @settings(max_examples=100)
    @given(planted_theories())
    def test_whole_negative_border_was_probed(self, planted):
        """The final certification iteration enumerates all of Bd-(MTh);
        each member must appear in the oracle history answered False."""
        oracle = CountingOracle(planted.is_interesting)
        result = dualize_and_advance(planted.universe, oracle)
        history = oracle.history()
        for mask in result.negative_border:
            assert history[mask] is False
