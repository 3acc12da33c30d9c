"""Cross-engine property tests: the load-bearing invariants of the library.

Four independent transversal engines, three miners, and two learners must
agree everywhere; these hypothesis suites are the library's strongest
correctness evidence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theory import compute_theory_brute_force
from repro.core.verification import verify_maxth
from repro.hypergraph.berge import berge_transversal_masks
from repro.hypergraph.enumeration import (
    brute_force_transversal_masks,
    iter_minimal_transversals,
    minimal_transversals,
)
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.util.antichain import minimize_masks
from repro.util.bitset import popcount

from tests.conftest import mask_families, planted_theories, simple_hypergraphs


class TestTransversalEngines:
    @settings(max_examples=250, deadline=None)
    @given(simple_hypergraphs())
    def test_all_engines_agree(self, hypergraph):
        reference = brute_force_transversal_masks(
            hypergraph.edge_masks, len(hypergraph.universe)
        )
        for method in ("berge", "fk", "levelwise"):
            assert sorted(minimal_transversals(hypergraph, method)) == sorted(
                reference
            ), method

    @settings(max_examples=150, deadline=None)
    @given(simple_hypergraphs())
    def test_every_output_is_minimal_transversal(self, hypergraph):
        for mask in berge_transversal_masks(hypergraph.edge_masks):
            assert hypergraph.is_minimal_transversal(mask)

    @settings(max_examples=150, deadline=None)
    @given(simple_hypergraphs(max_vertices=7))
    def test_tr_tr_identity(self, hypergraph):
        """Tr(Tr(H)) = H for simple hypergraphs (Berge's theorem)."""
        once = berge_transversal_masks(hypergraph.edge_masks)
        twice = berge_transversal_masks(once)
        assert sorted(twice) == sorted(hypergraph.edge_masks)

    @settings(max_examples=120, deadline=None)
    @given(simple_hypergraphs())
    def test_incremental_iteration_is_complete_and_duplicate_free(
        self, hypergraph
    ):
        seen = list(iter_minimal_transversals(hypergraph, method="fk"))
        assert len(seen) == len(set(seen))
        assert sorted(seen) == sorted(
            berge_transversal_masks(hypergraph.edge_masks)
        )

    @settings(max_examples=150, deadline=None)
    @given(mask_families(max_vertices=7))
    def test_transversals_invariant_under_minimization(self, data):
        _, family = data
        assert berge_transversal_masks(family) == berge_transversal_masks(
            minimize_masks(family)
        )


class TestMinersAgree:
    @settings(max_examples=150, deadline=None)
    @given(planted_theories(), st.integers(0, 2**16))
    def test_four_miners_and_brute_force(self, planted, seed):
        ground = compute_theory_brute_force(
            planted.universe, planted.is_interesting
        )
        miners = [
            levelwise(planted.universe, planted.is_interesting),
            dualize_and_advance(planted.universe, planted.is_interesting),
            dualize_and_advance(
                planted.universe,
                planted.is_interesting,
                engine="berge",
                shuffle=seed,
            ),
        ]
        for result in miners:
            assert tuple(result.maximal) == ground.maximal
            assert tuple(result.negative_border) == ground.negative_border

    @settings(max_examples=100, deadline=None)
    @given(planted_theories())
    def test_mined_maximal_verifies(self, planted):
        result = dualize_and_advance(planted.universe, planted.is_interesting)
        verdict = verify_maxth(
            planted.universe, planted.is_interesting, list(result.maximal)
        )
        assert verdict.is_valid

    @settings(max_examples=100, deadline=None)
    @given(planted_theories())
    def test_borders_are_antichains_and_disjoint(self, planted):
        result = levelwise(planted.universe, planted.is_interesting)
        maximal = list(result.maximal)
        border = list(result.negative_border)
        for family in (maximal, border):
            for i, a in enumerate(family):
                for b in family[i + 1 :]:
                    assert a & b != a and a & b != b
        # No border set is interesting; every maximal set is.
        for mask in maximal:
            assert planted.is_interesting(mask)
        for mask in border:
            assert not planted.is_interesting(mask)

    @settings(max_examples=100, deadline=None)
    @given(planted_theories())
    def test_border_covers_lattice(self, planted):
        """Everything uninteresting lies above the negative border and
        everything interesting below the positive one."""
        result = levelwise(planted.universe, planted.is_interesting)
        maximal = list(result.maximal)
        border = list(result.negative_border)
        for mask in range(planted.universe.full_mask + 1):
            if planted.is_interesting(mask):
                assert any(mask & top == mask for top in maximal)
            else:
                assert any(mask & low == low for low in border)


class TestQueryEconomy:
    @settings(max_examples=100, deadline=None)
    @given(planted_theories())
    def test_levelwise_meets_theorem2_floor(self, planted):
        """No algorithm can beat |Bd(Th)| queries (Theorem 2); levelwise
        pays |Th| + |Bd-| ≥ that floor."""
        result = levelwise(planted.universe, planted.is_interesting)
        floor = len(result.maximal) + len(result.negative_border)
        assert result.queries >= floor

    @settings(max_examples=80, deadline=None)
    @given(planted_theories())
    def test_theorem2_adversary_every_miner_queries_the_border(self, planted):
        """Theorem 2, executed: an adversary could flip any unqueried
        border sentence without breaking monotonicity, so every correct
        miner's history must contain all of Bd+ ∪ Bd-.  Checked for
        levelwise, D&A (plain and shuffled) and MaxMiner."""
        from repro.core.oracle import CountingOracle
        from repro.mining.maxminer import maxminer_maxth

        ground = compute_theory_brute_force(
            planted.universe, planted.is_interesting
        )
        border = set(ground.maximal) | set(ground.negative_border)

        runs = [
            lambda oracle: levelwise(planted.universe, oracle),
            lambda oracle: dualize_and_advance(planted.universe, oracle),
            lambda oracle: dualize_and_advance(
                planted.universe, oracle, engine="berge", shuffle=17
            ),
            lambda oracle: maxminer_maxth(planted.universe, oracle),
        ]
        for run in runs:
            oracle = CountingOracle(planted.is_interesting)
            run(oracle)
            assert border <= set(oracle.history())
            assert oracle.distinct_queries >= len(border)

    @settings(max_examples=100, deadline=None)
    @given(planted_theories())
    def test_dualize_advance_beats_levelwise_on_deep_theories(self, planted):
        """When the theory is much larger than its border, D&A must win;
        asserted in the regime where it is guaranteed: rank ≥ 4 with a
        single maximal set."""
        if len(planted.maximal_masks) != 1:
            return
        rank = max((popcount(m) for m in planted.maximal_masks), default=0)
        if rank < 4:
            return
        lw = levelwise(planted.universe, planted.is_interesting)
        da = dualize_and_advance(planted.universe, planted.is_interesting)
        assert da.queries < lw.queries
