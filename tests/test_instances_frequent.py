"""Tests for the frequent-itemset instance wiring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import MonotonicityCheckingOracle
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.transactions import TransactionDatabase
from repro.instances.frequent_itemsets import (
    FrequencyPredicate,
    mine_frequent_itemsets,
)
from repro.util.bitset import Universe

from tests.conftest import labels

ALGORITHMS = (
    "apriori",
    "levelwise",
    "dualize_advance",
    "maxminer",
    "eclat",
)


@pytest.fixture
def figure1_database() -> TransactionDatabase:
    return TransactionDatabase.from_transactions(
        [{"A", "B", "C"}, {"A", "B", "C"}, {"B", "D"}, {"B", "D"}]
    )


class TestFrequencyPredicate:
    def test_threshold_conversion(self, figure1_database):
        by_count = FrequencyPredicate(figure1_database, 2)
        by_ratio = FrequencyPredicate(figure1_database, 0.5)
        assert by_count.threshold == by_ratio.threshold == 2

    def test_monotone(self, figure1_database):
        """Frequency predicates are monotone — run one under the audit
        oracle across the whole lattice."""
        oracle = MonotonicityCheckingOracle(
            FrequencyPredicate(figure1_database, 2)
        )
        for mask in range(16):
            oracle(mask)

    def test_negative_threshold_rejected(self, figure1_database):
        with pytest.raises(ValueError):
            FrequencyPredicate(figure1_database, -3)


class TestMineFrequentItemsets:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_figure1_all_algorithms(self, figure1_database, algorithm):
        theory = mine_frequent_itemsets(
            figure1_database, 2, algorithm=algorithm, seed=5
        )
        universe = figure1_database.universe
        assert labels(universe, theory.maximal) == ["ABC", "BD"]
        assert labels(universe, theory.negative_border) == ["AD", "CD"]

    def test_apriori_extras(self, figure1_database):
        theory = mine_frequent_itemsets(figure1_database, 2)
        assert theory.supports[0] == figure1_database.n_transactions
        assert len(theory.levels) >= 2

    def test_dualize_advance_extras(self, figure1_database):
        theory = mine_frequent_itemsets(
            figure1_database, 2, algorithm="dualize_advance"
        )
        assert theory.interesting is None
        assert len(theory.iterations) == len(theory.maximal) + 1

    def test_unknown_algorithm(self, figure1_database):
        for algorithm in ("magic", "randomized"):
            with pytest.raises(ValueError, match="expected one of") as caught:
                mine_frequent_itemsets(
                    figure1_database, 2, algorithm=algorithm
                )
            for name in ALGORITHMS:
                assert repr(name) in str(caught.value)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_all_algorithms_agree(self, n_items, n_rows, threshold, rng):
        universe = Universe(range(n_items))
        rows = [rng.randrange(1 << n_items) for _ in range(n_rows)]
        database = TransactionDatabase(universe, rows)
        results = [
            mine_frequent_itemsets(database, threshold, algorithm=a, seed=0)
            for a in ALGORITHMS
        ]
        reference = results[0]
        for theory in results[1:]:
            assert theory.maximal == reference.maximal
            assert theory.negative_border == reference.negative_border


class TestOnQuestData:
    def test_quest_mining_is_consistent(self):
        # σ = 0.2 keeps the theory in the hundreds on this dense 30-item
        # workload (σ = 0.1 would push |Th| past 10^5 — fine for the
        # benchmark harness, too slow for a unit test).
        params = QuestParameters(n_items=30, n_transactions=300)
        database = generate_quest_database(params, seed=17)
        threshold = 0.2
        apriori_theory = mine_frequent_itemsets(database, threshold)
        advance_theory = mine_frequent_itemsets(
            database, threshold, algorithm="dualize_advance", seed=1
        )
        assert apriori_theory.maximal == advance_theory.maximal
        assert apriori_theory.negative_border == advance_theory.negative_border
        # Apriori pays for the whole theory; D&A only for borders+greedy.
        assert apriori_theory.queries >= len(apriori_theory.maximal)
