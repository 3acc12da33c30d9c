"""Tests for the Apriori frequent-set miner."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import CountingOracle
from repro.datasets.transactions import TransactionDatabase
from repro.instances.frequent_itemsets import FrequencyPredicate
from repro.mining.apriori import apriori
from repro.mining.levelwise import levelwise
from repro.util.bitset import Universe, iter_submasks, popcount

from tests.conftest import labels


@pytest.fixture
def figure1_database() -> TransactionDatabase:
    """A database whose 2-frequent sets realize Figure 1 exactly."""
    return TransactionDatabase.from_transactions(
        [
            {"A", "B", "C"},
            {"A", "B", "C"},
            {"B", "D"},
            {"B", "D"},
        ]
    )


def _naive_frequent(database: TransactionDatabase, threshold: int):
    """Ground-truth frequent sets by scanning the whole powerset."""
    frequent = {}
    for mask in range(database.universe.full_mask + 1):
        support = sum(
            1 for row in database.transaction_masks if mask & row == mask
        )
        if support >= threshold:
            frequent[mask] = support
    return frequent


class TestAprioriOnFigure1:
    def test_maximal_and_border(self, figure1_database):
        result = apriori(figure1_database, 2)
        universe = figure1_database.universe
        assert labels(universe, result.maximal) == ["ABC", "BD"]
        assert labels(universe, result.negative_border) == ["AD", "CD"]

    def test_supports(self, figure1_database):
        result = apriori(figure1_database, 2)
        universe = figure1_database.universe
        assert result.supports[universe.to_mask("ABC")] == 2
        assert result.supports[universe.to_mask("B")] == 4
        assert result.supports[0] == 4

    def test_database_passes_is_levels(self, figure1_database):
        result = apriori(figure1_database, 2)
        # Levels: singletons, pairs, triples, (empty candidate set stops)
        assert len(result.levels) == 4
        # The candidates of each level are its Th ∪ Bd- members.
        evaluated = Counter(
            map(popcount, (*result.interesting, *result.negative_border))
        )
        assert (evaluated[1], evaluated[2], evaluated[3]) == (4, 6, 1)

    def test_largest_frequent_size(self, figure1_database):
        assert apriori(figure1_database, 2).rank() == 3


class TestAprioriEdgeCases:
    def test_threshold_above_database_size(self, figure1_database):
        result = apriori(figure1_database, 100)
        assert result.maximal == ()
        assert result.negative_border == (0,)
        assert result.supports == {}

    def test_zero_threshold_mines_everything(self):
        database = TransactionDatabase.from_transactions([{"A", "B"}])
        result = apriori(database, 0)
        assert result.maximal == (0b11,)
        assert len(result.supports) == 4

    def test_relative_threshold(self, figure1_database):
        """0.5 relative = 2 of 4 rows."""
        by_ratio = apriori(figure1_database, 0.5)
        by_count = apriori(figure1_database, 2)
        assert by_ratio.supports == by_count.supports

    def test_negative_threshold_rejected(self, figure1_database):
        with pytest.raises(ValueError):
            apriori(figure1_database, -1)

    def test_max_size_truncates(self, figure1_database):
        result = apriori(figure1_database, 2, max_size=1)
        assert all(popcount(mask) <= 1 for mask in result.supports)

    def test_empty_database(self):
        database = TransactionDatabase(Universe("AB"), [])
        result = apriori(database, 1)
        assert result.maximal == ()
        assert result.negative_border == (0,)


class TestAprioriAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_matches_naive_counting(self, n_items, n_rows, threshold, rng):
        universe = Universe(range(n_items))
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        database = TransactionDatabase(universe, rows)
        result = apriori(database, threshold)
        assert result.supports == _naive_frequent(database, threshold)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_matches_levelwise(self, n_items, n_rows, threshold, rng):
        """Apriori ≡ generic levelwise on the frequency oracle (borders
        and query accounting)."""
        universe = Universe(range(n_items))
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        database = TransactionDatabase(universe, rows)
        result = apriori(database, threshold)
        oracle = CountingOracle(FrequencyPredicate(database, threshold))
        reference = levelwise(universe, oracle)
        assert sorted(result.maximal) == sorted(reference.maximal)
        assert sorted(result.negative_border) == sorted(
            reference.negative_border
        )
        assert sorted(result.supports) == sorted(reference.interesting)

    def test_supports_are_subset_closed(self, figure1_database):
        result = apriori(figure1_database, 2)
        for mask in result.supports:
            for sub in iter_submasks(mask):
                assert sub in result.supports

    def test_supports_are_antitone(self, figure1_database):
        """Support never grows when the itemset grows."""
        result = apriori(figure1_database, 2)
        for mask, support in result.supports.items():
            for sub in iter_submasks(mask):
                assert result.supports[sub] >= support


def test_random_seeded_database_is_stable():
    rng = random.Random(123)
    universe = Universe(range(8))
    rows = [rng.randrange(256) for _ in range(50)]
    database = TransactionDatabase(universe, rows)
    assert apriori(database, 5).supports == apriori(database, 5).supports
