"""Budget exhaustion must yield *sound* certified brackets.

Theorem 2 / Corollary 4 reading: whatever prefix of ``Is-interesting``
answers an interrupted engine holds, the bracket it reports — ``Bd+`` of
the confirmed sets, the verified ``Bd-`` prefix, the open frontier —
must be consistent with the true theory.  These tests interrupt every
engine at hypothesis-chosen points and check the bracket against the
planted ground truth.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import BudgetExhausted
from repro.hypergraph.enumeration import (
    brute_force_transversal_masks,
    minimal_transversals,
)
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer_maxth
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.util.bitset import popcount

from tests.conftest import planted_theories, simple_hypergraphs


class TestBudgetMechanics:
    def test_query_limit_trips(self):
        budget = Budget(max_queries=10)
        budget.begin()
        budget.check(queries=9)
        with pytest.raises(BudgetExhausted) as info:
            budget.check(queries=10)
        assert info.value.reason == "queries"

    def test_family_limit_is_strictly_above(self):
        budget = Budget(max_family=4)
        budget.begin()
        budget.check(family=4)
        with pytest.raises(BudgetExhausted) as info:
            budget.check(family=5)
        assert info.value.reason == "family"

    def test_timeout_with_injected_clock(self):
        now = [0.0]
        budget = Budget(timeout=5.0, clock=lambda: now[0])
        budget.begin()
        budget.check()
        now[0] = 4.99
        budget.check()
        now[0] = 5.0
        with pytest.raises(BudgetExhausted) as info:
            budget.check()
        assert info.value.reason == "timeout"

    def test_query_allowance(self):
        budget = Budget(max_queries=10)
        assert budget.query_allowance(3) == 7
        assert budget.query_allowance(10) == 0
        assert Budget(timeout=1.0).query_allowance(3) is None

    @pytest.mark.parametrize(
        "limit", ["max_queries", "timeout", "max_family"]
    )
    def test_nan_limit_is_rejected(self, limit):
        # NaN fails every comparison, so no check would ever trip.
        with pytest.raises(ValueError, match=limit):
            Budget(**{limit: float("nan")})

    def test_restart_resets_the_clock(self):
        now = [0.0]
        budget = Budget(timeout=5.0, clock=lambda: now[0])
        budget.begin()
        now[0] = 4.0
        budget.restart()
        now[0] = 8.0
        budget.check()  # only 4s elapsed since restart
        assert budget.elapsed() == pytest.approx(4.0)


def _assert_bracket_sound(partial: PartialResult, planted):
    """The certified bracket never contradicts the planted truth."""
    universe = planted.universe
    for mask in partial.positive_border:
        assert planted.is_interesting(mask)
    for mask in partial.negative:
        assert not planted.is_interesting(mask)
        # A verified Bd- member really is on the negative border: every
        # immediate generalization is interesting.
        for bit in range(len(universe)):
            parent = mask & ~(1 << bit)
            if parent != mask:
                assert planted.is_interesting(parent)
    assert partial.certificate()
    live = partial.certificate(planted.is_interesting)
    assert live.ok
    assert live.requeried == len(partial.positive_border) + len(
        partial.negative
    )
    # decided() never lies, in either direction.
    for mask in range(1 << len(universe)):
        verdict = partial.decided(mask)
        if verdict is not None:
            assert verdict == planted.is_interesting(mask)


class TestLevelwiseBracket:
    @given(planted=planted_theories(max_attributes=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_partial_bracket_is_sound(self, planted, data):
        baseline = levelwise(planted.universe, planted.is_interesting)
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=cut),
        )
        assert isinstance(partial, PartialResult)
        assert partial.queries <= cut
        _assert_bracket_sound(partial, planted)

    @given(planted=planted_theories(max_attributes=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_frontier_covers_the_undiscovered_theory(self, planted, data):
        """Completeness of the lower frontier: every true maximal set is
        either already certified or reachable through the frontier."""
        universe = planted.universe
        baseline = levelwise(universe, planted.is_interesting)
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = levelwise(
            universe, planted.is_interesting, budget=Budget(max_queries=cut)
        )
        assert isinstance(partial, PartialResult)
        assert partial.frontier_kind == "lower"
        assert partial.frontier_complete
        reachable = partial.frontier + partial.positive_border
        for maximal in planted.maximal_masks:
            assert any(low & maximal == low for low in reachable)

    def test_family_budget_trips_on_wide_level(self):
        planted = _wide_theory()
        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_family=3),
        )
        assert isinstance(partial, PartialResult)
        assert partial.reason == "family"
        _assert_bracket_sound(partial, planted)

    def test_timeout_reason_is_reported(self):
        planted = _wide_theory()
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        partial = levelwise(
            planted.universe,
            planted.is_interesting,
            budget=Budget(timeout=2.0, clock=clock),
        )
        assert isinstance(partial, PartialResult)
        assert partial.reason == "timeout"
        assert partial.certificate()


def _wide_theory():
    from repro.datasets.planted import PlantedTheory
    from repro.util.bitset import Universe

    universe = Universe(range(8))
    return PlantedTheory(universe, tuple(1 << i for i in range(8)))


class TestDualizeAdvanceBracket:
    @given(
        planted=planted_theories(max_attributes=6),
        engine=st.sampled_from(["berge", "fk"]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_partial_bracket_is_sound(self, planted, engine, data):
        universe = planted.universe
        baseline = dualize_and_advance(
            universe, planted.is_interesting, engine=engine
        )
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = dualize_and_advance(
            universe,
            planted.is_interesting,
            engine=engine,
            budget=Budget(max_queries=cut),
        )
        if not isinstance(partial, PartialResult):
            return  # budget landed inside the final atomic unit
        _assert_bracket_sound(partial, planted)
        # Every *recorded iteration* contributed a genuine MTh element;
        # only an in-flight counterexample may still be mid-maximalize.
        for row in partial.checkpoint.state["iterations"]:
            enumerated, counterexample, new_maximal, family_size = row
            assert new_maximal in planted.maximal_masks


class TestMaxMinerBracket:
    @given(planted=planted_theories(max_attributes=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_envelopes_cover_undiscovered_maximal_sets(self, planted, data):
        universe = planted.universe
        n = len(universe)
        baseline = maxminer_maxth(universe, planted.is_interesting)
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = maxminer_maxth(
            universe, planted.is_interesting, budget=Budget(max_queries=cut)
        )
        if not isinstance(partial, PartialResult):
            return  # one node (≤ n + 1 queries) is the atomic overshoot
        assert partial.queries <= cut + n + 1
        assert partial.frontier_kind == "upper"
        assert partial.certificate()
        discovered = set(partial.positive_border)
        for maximal in planted.maximal_masks:
            covered = any(
                maximal & found == maximal for found in discovered
            ) or any(
                maximal & envelope == maximal for envelope in partial.frontier
            )
            assert covered


class TestDualizationPartials:
    @given(hypergraph=simple_hypergraphs(max_vertices=7), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_berge_partial_is_prefix_transversal_family(
        self, hypergraph, data
    ):
        full = minimal_transversals(hypergraph, method="berge")
        assume(len(full) >= 2)
        limit = data.draw(
            st.integers(min_value=1, max_value=len(full) - 1), label="limit"
        )
        try:
            minimal_transversals(
                hypergraph, method="berge", budget=Budget(max_family=limit)
            )
        except BudgetExhausted as exhausted:
            partial = exhausted.partial
            assert partial is not None
            expected = brute_force_transversal_masks(
                list(partial.processed_edges), len(hypergraph.universe)
            )
            assert sorted(partial.family) == sorted(expected)
        # No exception: the intermediate families never exceeded the
        # limit even though the final family does not either — only
        # possible when limit >= every intermediate size, fine.

    @given(hypergraph=simple_hypergraphs(max_vertices=7), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_fk_partial_members_are_genuine_transversals(
        self, hypergraph, data
    ):
        full = minimal_transversals(hypergraph, method="brute")
        assume(len(full) >= 2)
        limit = data.draw(
            st.integers(min_value=1, max_value=len(full) - 1), label="limit"
        )
        with pytest.raises(BudgetExhausted) as info:
            minimal_transversals(
                hypergraph, method="fk", budget=Budget(max_family=limit)
            )
        partial = info.value.partial
        assert partial is not None
        # The family check is strictly-above, and the FK recursion's own
        # per-node check can also trip first — so at most `limit` genuine
        # members of Tr(H) were enumerated, each one exact.
        assert len(partial.family) <= limit
        assert set(partial.family) <= set(full)

    def test_baselines_reject_budgets(self):
        from repro.hypergraph.hypergraph import Hypergraph
        from repro.util.bitset import Universe

        hypergraph = Hypergraph.from_sets(
            [{0, 1}, {1, 2}], Universe(range(3))
        )
        for method in ("levelwise", "brute"):
            with pytest.raises(ValueError):
                minimal_transversals(
                    hypergraph, method=method, budget=Budget(max_queries=1)
                )


class TestPartialResultSurface:
    def test_repr_and_helpers(self, figure1_theory):
        partial = levelwise(
            figure1_theory.universe,
            figure1_theory.is_interesting,
            budget=Budget(max_queries=5),
        )
        assert isinstance(partial, PartialResult)
        assert not partial.is_complete()
        assert partial.border_size() == len(partial.positive_border) + len(
            partial.negative
        )
        text = repr(partial)
        assert "levelwise" in text and "queries" in text

    def test_certificate_detects_tampering(self, figure1_theory):
        from dataclasses import replace

        partial = levelwise(
            figure1_theory.universe,
            figure1_theory.is_interesting,
            budget=Budget(max_queries=6),
        )
        assert isinstance(partial, PartialResult)
        assume_ok = partial.certificate()
        assert assume_ok.ok
        # Claim an unqueried set as a Bd+ member: check 1 must fire.
        fake = figure1_theory.universe.full_mask
        forged = replace(
            partial,
            positive_border=tuple(
                sorted(
                    set(partial.positive_border) | {fake},
                    key=lambda m: (popcount(m), m),
                )
            ),
        )
        assert not forged.certificate().ok


class TestCutCost:
    """A cut answers each parent check from the confirmed sets or one
    by-bit index query; it never walks the live ``Bd+`` tracker."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        from repro.util.antichain import DominanceIndex, MaximalFamilyTracker

        calls = {"index": 0, "tracker": 0}
        index_dominates = DominanceIndex.dominates
        tracker_dominates = MaximalFamilyTracker.dominates

        def index(self, mask):
            calls["index"] += 1
            return index_dominates(self, mask)

        def tracker(self, mask):
            calls["tracker"] += 1
            return tracker_dominates(self, mask)

        monkeypatch.setattr(DominanceIndex, "dominates", index)
        monkeypatch.setattr(MaximalFamilyTracker, "dominates", tracker)
        return calls

    @staticmethod
    def _parents(mask):
        remaining = mask
        while remaining:
            low = remaining & -remaining
            yield mask & ~low
            remaining ^= low

    def test_eclat_cut_and_certificate_scan_only_unconfirmed_parents(
        self, scans
    ):
        from repro.datasets.synthetic import (
            QuestParameters,
            generate_quest_database,
        )
        from repro.mining.eclat import eclat
        from repro.util.antichain import minimize_masks

        database = generate_quest_database(
            QuestParameters(
                n_items=16, n_transactions=200, avg_transaction_length=5
            ),
            seed=3,
        )
        complete = eclat(database, 0.05)
        scans.update(index=0, tracker=0)
        partial = eclat(
            database, 0.05, budget=Budget(max_queries=complete.queries // 2)
        )
        assert isinstance(partial, PartialResult)
        confirmed = set(partial.interesting)
        rejected = [m for m, answer in partial.history.items() if not answer]
        unconfirmed = sum(
            parent not in confirmed
            for mask in rejected
            for parent in self._parents(mask)
        )
        total = sum(popcount(mask) for mask in rejected)
        assert scans["tracker"] == 0
        assert 0 < scans["index"] <= unconfirmed < total
        assert partial.negative

        # The verified Bd- prefix is what a brute-force domination test
        # over the confirmed sets finds.
        def certified(mask):
            return any(mask & kept == mask for kept in confirmed)

        assert partial.negative == tuple(minimize_masks(
            mask for mask in rejected
            if all(certified(parent) for parent in self._parents(mask))
        ))

        scans.update(index=0, tracker=0)
        assert partial.certificate().ok
        assert scans["tracker"] == 0
        assert scans["index"] <= len(rejected) + sum(
            parent not in confirmed
            for mask in partial.negative
            for parent in self._parents(mask)
        )

    def test_maxminer_budget_sorts_no_family_per_node(self, monkeypatch):
        from repro.util.antichain import MaximalFamilyTracker

        planted = _wide_theory()
        baseline = maxminer_maxth(planted.universe, planted.is_interesting)
        sorts = []
        masks = MaximalFamilyTracker.masks

        def counted(self):
            sorts.append(len(self))
            return masks(self)

        monkeypatch.setattr(MaximalFamilyTracker, "masks", counted)
        budgeted = maxminer_maxth(
            planted.universe,
            planted.is_interesting,
            budget=Budget(max_queries=10**9),
        )
        assert budgeted == baseline
        assert budgeted.nodes > 1
        assert len(sorts) == 1  # the result's Bd+, once
