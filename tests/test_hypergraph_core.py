"""Unit tests for the Hypergraph value type and family minimization
(:func:`~repro.util.antichain.minimize_masks` and
:func:`~repro.util.antichain.maximize_masks`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.hypergraph.hypergraph import Hypergraph, NonSimpleHypergraphError
from repro.util.antichain import maximize_masks, minimize_masks
from repro.util.bitset import Universe, rank_sorted

from tests.conftest import mask_families, unchecked_families


def _pairwise_validation_error(universe: Universe, edges) -> str | None:
    """The O(m²) simplicity check, as the constructor once ran it: the
    message of the first violation, or ``None`` for a simple family."""
    masks = rank_sorted(set(edges))
    for mask in masks:
        if mask == 0:
            return "edges must be non-empty"
        if mask & ~universe.full_mask:
            return "edge uses vertices outside the universe"
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b == a:
                return (
                    "family is not an antichain: "
                    f"{universe.label(a)} ⊆ {universe.label(b)}"
                )
    return None


class TestMinimizeFamily:
    def test_empty(self):
        assert minimize_masks([]) == []

    def test_removes_supersets(self):
        assert minimize_masks([0b111, 0b001, 0b011]) == [0b001]

    def test_keeps_antichain(self):
        assert minimize_masks([0b001, 0b110]) == [0b001, 0b110]

    def test_deduplicates(self):
        assert minimize_masks([0b01, 0b01]) == [0b01]

    def test_empty_set_dominates(self):
        assert minimize_masks([0, 0b1, 0b11]) == [0]

    @given(mask_families())
    def test_result_is_antichain_covering_input(self, data):
        _, family = data
        minimized = minimize_masks(family)
        # Antichain:
        for i, a in enumerate(minimized):
            for b in minimized[i + 1 :]:
                assert a & b != a and a & b != b
        # Every input has a kept subset:
        for mask in family:
            assert any(kept & mask == kept for kept in minimized)


class TestMaximizeFamily:
    def test_removes_subsets(self):
        assert maximize_masks([0b111, 0b001, 0b011]) == [0b111]

    def test_empty(self):
        assert maximize_masks([]) == []

    @given(mask_families())
    def test_result_is_antichain_covered_by_input(self, data):
        _, family = data
        maximized = maximize_masks(family)
        for i, a in enumerate(maximized):
            for b in maximized[i + 1 :]:
                assert a & b != a and a & b != b
        for mask in family:
            assert any(mask & kept == mask for kept in maximized)


class TestHypergraphConstruction:
    def test_valid(self):
        hypergraph = Hypergraph(Universe("ABC"), [0b001, 0b110])
        assert hypergraph.n_edges == 2
        assert hypergraph.n_vertices == 3

    def test_empty_edge_rejected(self):
        with pytest.raises(NonSimpleHypergraphError):
            Hypergraph(Universe("AB"), [0])

    def test_nested_edges_rejected(self):
        with pytest.raises(NonSimpleHypergraphError):
            Hypergraph(Universe("ABC"), [0b001, 0b011])

    def test_out_of_universe_rejected(self):
        with pytest.raises(NonSimpleHypergraphError):
            Hypergraph(Universe("AB"), [0b100])

    def test_simple_constructor_minimizes(self):
        hypergraph = Hypergraph.simple(Universe("ABC"), [0b111, 0b001])
        assert hypergraph.edge_masks == (0b001,)

    def test_simple_rejects_empty_edge(self):
        with pytest.raises(NonSimpleHypergraphError):
            Hypergraph.simple(Universe("AB"), [0, 0b01])

    def test_from_sets_infers_universe(self):
        hypergraph = Hypergraph.from_sets([{"b"}, {"a", "c"}])
        assert hypergraph.universe.items == ("a", "b", "c")
        assert hypergraph.n_edges == 2

    def test_from_sets_with_explicit_universe(self):
        universe = Universe("ABCD")
        hypergraph = Hypergraph.from_sets([{"D"}], universe)
        assert hypergraph.universe is universe

    def test_empty_hypergraph_allowed(self):
        hypergraph = Hypergraph(Universe("AB"), [])
        assert hypergraph.n_edges == 0

    def test_duplicate_edges_collapse(self):
        hypergraph = Hypergraph(Universe("AB"), [0b01, 0b01])
        assert hypergraph.n_edges == 1

    def test_equality_and_hash(self):
        a = Hypergraph(Universe("AB"), [0b01])
        b = Hypergraph(Universe("AB"), [0b01])
        assert a == b
        assert hash(a) == hash(b)

    @settings(max_examples=400, deadline=None)
    @given(unchecked_families())
    def test_validation_matches_the_pairwise_check(self, case):
        universe, family = case
        expected = _pairwise_validation_error(universe, family)
        if expected is None:
            hypergraph = Hypergraph(universe, family)
            assert hypergraph.edge_masks == tuple(rank_sorted(set(family)))
        else:
            with pytest.raises(NonSimpleHypergraphError) as caught:
                Hypergraph(universe, family)
            assert str(caught.value) == expected
        if 0 in family:
            with pytest.raises(
                NonSimpleHypergraphError, match="edges must be non-empty"
            ):
                Hypergraph.simple(universe, family)
            return
        simple = Hypergraph.simple(universe, family)
        reference = [
            a
            for a in set(family)
            if not any(b != a and a & b == b for b in family)
        ]
        assert simple.edge_masks == tuple(rank_sorted(reference))
        # What simple returns passes validation over a wide enough universe.
        wide = Universe(range(max(family, default=0).bit_length()))
        Hypergraph(wide, simple.edge_masks)


class TestHypergraphQueries:
    @pytest.fixture
    def triangle(self):
        # Edges AB, BC, CA on three vertices.
        return Hypergraph(Universe("ABC"), [0b011, 0b110, 0b101])

    def test_edge_sizes(self, triangle):
        assert triangle.min_edge_size() == 2
        assert triangle.max_edge_size() == 2

    def test_covered_vertices(self, triangle):
        assert triangle.covered_vertices_mask() == 0b111

    def test_is_transversal(self, triangle):
        assert triangle.is_transversal(0b011)  # {A, B} hits all edges
        assert not triangle.is_transversal(0b001)  # {A} misses BC

    def test_is_minimal_transversal(self, triangle):
        assert triangle.is_minimal_transversal(0b011)
        assert not triangle.is_minimal_transversal(0b111)
        assert not triangle.is_minimal_transversal(0b001)

    def test_is_independent(self, triangle):
        assert triangle.is_independent(0b001)
        assert not triangle.is_independent(0b011)

    def test_edges_as_sets(self, triangle):
        assert frozenset({"A", "B"}) in triangle.edges_as_sets()

    def test_empty_hypergraph_edge_sizes(self):
        empty = Hypergraph(Universe("AB"), [])
        assert empty.min_edge_size() == 0
        assert empty.max_edge_size() == 0
        assert empty.is_transversal(0)


class TestDerivedHypergraphs:
    def test_complement(self):
        universe = Universe("ABCD")
        hypergraph = Hypergraph.from_sets([{"A", "B", "C"}, {"B", "D"}], universe)
        complemented = hypergraph.complement_hypergraph()
        assert sorted(universe.label(m) for m in complemented) == ["AC", "D"]

    def test_complement_of_full_edge_rejected(self):
        universe = Universe("AB")
        hypergraph = Hypergraph(universe, [0b11])
        with pytest.raises(NonSimpleHypergraphError):
            hypergraph.complement_hypergraph()

    def test_complement_involution(self):
        universe = Universe("ABCDE")
        hypergraph = Hypergraph.from_sets([{"A", "B"}, {"C", "D"}], universe)
        assert hypergraph.complement_hypergraph().complement_hypergraph() == (
            hypergraph
        )

    def test_restrict_drops_empty_and_reminimizes(self):
        universe = Universe("ABCD")
        hypergraph = Hypergraph.from_sets(
            [{"A", "B"}, {"C"}, {"A", "D"}], universe
        )
        traced = hypergraph.restrict(universe.to_mask({"A", "B", "D"}))
        assert sorted(universe.label(m) for m in traced) == ["AB", "AD"]

    def test_restrict_to_nothing(self):
        universe = Universe("AB")
        hypergraph = Hypergraph(universe, [0b01])
        assert hypergraph.restrict(0).n_edges == 0
