"""Tests for counting oracles and monotonicity auditing."""

from __future__ import annotations

import pytest

from repro.core.errors import MonotonicityError
from repro.core.oracle import (
    CountingOracle,
    GenericCountingOracle,
    MonotonicityCheckingOracle,
)


class TestCountingOracle:
    def test_counts_distinct_queries(self):
        oracle = CountingOracle(lambda mask: mask < 4)
        oracle(1)
        oracle(2)
        oracle(1)
        assert oracle.distinct_queries == 2
        assert oracle.total_calls == 3

    def test_memoizes_answers(self):
        calls = []

        def predicate(mask):
            calls.append(mask)
            return True

        oracle = CountingOracle(predicate)
        oracle(5)
        oracle(5)
        assert calls == [5]

    def test_evaluated(self):
        oracle = CountingOracle(lambda mask: True)
        assert not oracle.evaluated(3)
        oracle(3)
        assert oracle.evaluated(3)

    def test_history(self):
        oracle = CountingOracle(lambda mask: mask == 1)
        oracle(1)
        oracle(2)
        assert oracle.history() == {1: True, 2: False}

    def test_reset(self):
        oracle = CountingOracle(lambda mask: True)
        oracle(1)
        oracle.reset()
        assert oracle.distinct_queries == 0
        assert oracle.total_calls == 0

    def test_repr(self):
        oracle = CountingOracle(lambda mask: True, name="freq")
        assert "freq" in repr(oracle)

    def test_truthiness_coerced(self):
        oracle = CountingOracle(lambda mask: mask & 1)  # returns int
        assert oracle(1) is True
        assert oracle(2) is False


class TestGenericCountingOracle:
    def test_counts_hashable_sentences(self):
        oracle = GenericCountingOracle(lambda episode: len(episode) < 2)
        assert oracle(("A",))
        assert not oracle(("A", "B"))
        oracle(("A",))
        assert oracle.distinct_queries == 2
        assert oracle.total_calls == 3

    def test_reset(self):
        oracle = GenericCountingOracle(lambda s: True)
        oracle(())
        oracle.reset()
        assert oracle.distinct_queries == 0


class TestMonotonicityCheckingOracle:
    def test_passes_monotone_predicate(self):
        oracle = MonotonicityCheckingOracle(lambda mask: mask & 0b100 == 0)
        for mask in range(8):
            oracle(mask)
        assert oracle.distinct_queries == 8

    def test_detects_superset_interesting_after_subset_not(self):
        answers = {0b01: False, 0b11: True}
        oracle = MonotonicityCheckingOracle(lambda mask: answers[mask])
        oracle(0b01)
        with pytest.raises(MonotonicityError):
            oracle(0b11)

    def test_detects_subset_not_after_superset_interesting(self):
        answers = {0b11: True, 0b01: False}
        oracle = MonotonicityCheckingOracle(lambda mask: answers[mask])
        oracle(0b11)
        with pytest.raises(MonotonicityError):
            oracle(0b01)

    def test_memo_hits_not_reaudited(self):
        oracle = MonotonicityCheckingOracle(lambda mask: True)
        oracle(1)
        oracle(1)
        assert oracle.total_calls == 2

    def test_statistical_significance_style_predicate_caught(self):
        """The paper's own example of non-monotonicity: a 'significant'
        specific sentence whose generalization is not interesting."""
        def significance(mask):
            return mask == 0b111  # only the specific set is 'significant'

        oracle = MonotonicityCheckingOracle(significance)
        oracle(0b011)
        with pytest.raises(MonotonicityError):
            oracle(0b111)

    def test_reset(self):
        oracle = MonotonicityCheckingOracle(lambda mask: True)
        oracle(1)
        oracle.reset()
        assert oracle.distinct_queries == 0
