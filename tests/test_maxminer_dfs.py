"""Tests for the MaxMiner baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.theory import compute_theory_brute_force
from repro.datasets.transactions import TransactionDatabase
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer, maxminer_maxth
from repro.obs.tracer import Tracer
from repro.util.bitset import Universe

from tests.conftest import labels, planted_theories


class TestMaxMiner:
    def test_figure1(self, figure1_universe, figure1_theory):
        result = maxminer_maxth(
            figure1_universe, figure1_theory.is_interesting
        )
        assert labels(figure1_universe, result.maximal) == ["ABC", "BD"]

    def test_empty_theory(self):
        universe = Universe("ABC")
        result = maxminer_maxth(universe, lambda mask: False)
        assert result.maximal == ()
        assert result.queries == 1

    def test_full_theory_uses_one_lookahead(self):
        universe = Universe("ABCDE")
        done = []

        class _Done(Tracer):
            def event(self, name, **attrs):
                if name == "maxminer.done":
                    done.append(attrs)

        result = maxminer_maxth(universe, lambda mask: True, tracer=_Done())
        assert result.maximal == (universe.full_mask,)
        assert [attrs["lookaheads"] for attrs in done] == [1]
        assert result.queries == 2  # ∅ plus the single lookahead

    @settings(max_examples=120, deadline=None)
    @given(planted_theories())
    def test_matches_brute_force(self, planted):
        ground = compute_theory_brute_force(
            planted.universe, planted.is_interesting
        )
        result = maxminer_maxth(planted.universe, planted.is_interesting)
        assert result.maximal == ground.maximal

    def test_lookahead_beats_levelwise_on_deep_theories(self):
        from repro.datasets.planted import random_planted_theory

        planted = random_planted_theory(14, 2, min_size=11, max_size=12, seed=3)
        walk = levelwise(planted.universe, planted.is_interesting)
        result = maxminer_maxth(planted.universe, planted.is_interesting)
        assert result.maximal == walk.maximal
        assert result.queries < walk.queries / 2

    def test_single_deep_set_is_one_lookahead(self):
        """One maximal set containing everything viable: the first
        lookahead closes the search after O(n) queries, versus 2^rank
        for levelwise."""
        from repro.datasets.planted import random_planted_theory

        planted = random_planted_theory(16, 1, min_size=13, max_size=13, seed=5)
        walk = levelwise(planted.universe, planted.is_interesting)
        result = maxminer_maxth(planted.universe, planted.is_interesting)
        assert result.maximal == walk.maximal
        assert result.queries < walk.queries / 50

    def test_database_front_end(self):
        database = TransactionDatabase.from_transactions(
            [{"A", "B", "C"}, {"A", "B", "C"}, {"B", "D"}, {"B", "D"}]
        )
        result = maxminer(database, 2)
        assert labels(database.universe, result.maximal) == ["ABC", "BD"]

    def test_database_relative_threshold(self):
        database = TransactionDatabase.from_transactions(
            [{"A"}, {"A"}, {"B"}]
        )
        by_ratio = maxminer(database, 0.5)
        by_count = maxminer(database, 2)
        assert by_ratio.maximal == by_count.maximal

    def test_negative_threshold_rejected(self):
        database = TransactionDatabase.from_transactions([{"A"}])
        with pytest.raises(ValueError):
            maxminer(database, -1)
