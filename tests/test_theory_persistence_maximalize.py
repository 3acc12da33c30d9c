"""Tests for Theory JSON persistence and the greedy maximalizer."""

from __future__ import annotations

import json

from hypothesis import given, settings

from repro.core.oracle import CountingOracle
from repro.core.theory import Theory
from repro.mining.levelwise import levelwise
from repro.mining.maximalize import greedy_maximalize
from repro.util.bitset import Universe

from tests.conftest import planted_theories


class TestTheorySerialization:
    def test_round_trip_string_universe(self, figure1_universe, figure1_theory):
        mined = levelwise(figure1_universe, figure1_theory.is_interesting)
        theory = Theory(
            universe=figure1_universe,
            maximal=mined.maximal,
            negative_border=mined.negative_border,
            interesting=mined.interesting,
            queries=mined.queries,
        )
        payload = json.loads(json.dumps(theory.to_dict()))
        rebuilt = Theory.from_dict(payload)
        assert rebuilt == theory

    def test_round_trip_integer_universe(self):
        universe = Universe(range(5))
        theory = Theory(
            universe=universe,
            maximal=(0b00111,),
            negative_border=(0b01000, 0b10000),
            interesting=None,
            queries=9,
        )
        payload = theory.to_dict()
        rebuilt = Theory.from_dict(payload, item_type=int)
        assert rebuilt == theory

    def test_none_interesting_survives(self):
        universe = Universe("AB")
        theory = Theory(universe, (0b01,), (0b10,), interesting=None)
        assert Theory.from_dict(theory.to_dict()).interesting is None

    def test_extra_not_serialized(self):
        # Only the certificate and its accounting are serialized, not
        # the support tables or the search figures.
        universe = Universe("AB")
        theory = Theory(
            universe,
            (0b01,),
            (0b10,),
            min_support=1,
            supports={0: 2, 0b01: 1},
            border_supports=(0,),
            nodes=3,
            iterations=(object(),),
        )
        payload = theory.to_dict()
        assert set(payload) == {
            "universe", "maximal", "negative_border", "interesting",
            "queries",
        }
        json.dumps(payload)  # fully JSON-safe

    @settings(max_examples=60)
    @given(planted_theories(max_attributes=6))
    def test_property_round_trip(self, planted):
        mined = levelwise(planted.universe, planted.is_interesting)
        theory = Theory(
            universe=planted.universe,
            maximal=mined.maximal,
            negative_border=mined.negative_border,
            interesting=mined.interesting,
            queries=mined.queries,
        )
        rebuilt = Theory.from_dict(theory.to_dict(), item_type=int)
        assert rebuilt == theory


class TestGreedyMaximalize:
    def test_extends_to_known_maximal(self, figure1_universe, figure1_theory):
        result = greedy_maximalize(
            figure1_universe, figure1_theory.is_interesting, 0
        )
        assert figure1_universe.label(result) == "ABC"

    def test_respects_custom_order(self, figure1_universe, figure1_theory):
        # Visiting D first commits to the BD branch.
        order = [3, 2, 1, 0]  # D, C, B, A
        result = greedy_maximalize(
            figure1_universe, figure1_theory.is_interesting, 0, order=order
        )
        assert figure1_universe.label(result) == "BD"

    def test_start_already_maximal(self, figure1_universe, figure1_theory):
        start = figure1_universe.to_mask("BD")
        assert greedy_maximalize(
            figure1_universe, figure1_theory.is_interesting, start
        ) == start

    def test_single_pass_query_budget(self, figure1_universe, figure1_theory):
        oracle = CountingOracle(figure1_theory.is_interesting)
        greedy_maximalize(figure1_universe, oracle, 0)
        # One query per attribute not in the start mask, at most.
        assert oracle.distinct_queries <= len(figure1_universe)

    @settings(max_examples=100)
    @given(planted_theories(max_attributes=7))
    def test_result_is_maximal_interesting(self, planted):
        if not planted.is_interesting(0):
            return
        result = greedy_maximalize(
            planted.universe, planted.is_interesting, 0
        )
        assert planted.is_interesting(result)
        for bit_index in range(len(planted.universe)):
            extended = result | (1 << bit_index)
            if extended != result:
                assert not planted.is_interesting(extended)
