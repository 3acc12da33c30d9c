"""Tests for key/FD discovery: the agree-set and oracle routes agree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.relations import Relation, generate_relation_with_keys
from repro.instances.functional_dependencies import (
    fd_interestingness_predicate,
    fd_lhs_via_agree_sets,
    key_interestingness_predicate,
    mine_minimal_keys,
    minimal_keys_via_agree_sets,
)
from repro.mining.levelwise import levelwise
from repro.util.bitset import iter_bits


def _random_relation(rng, max_attributes=5, max_rows=8, domain=3) -> Relation:
    n_attributes = rng.randint(1, max_attributes)
    n_rows = rng.randint(0, max_rows)
    rows = [
        tuple(rng.randrange(domain) for _ in range(n_attributes))
        for _ in range(n_rows)
    ]
    return Relation(range(n_attributes), rows)


def _brute_force_minimal_keys(relation: Relation) -> list[int]:
    keys = [
        mask
        for mask in range(relation.universe.full_mask + 1)
        if relation.is_superkey(mask)
    ]
    minimal = [
        mask
        for mask in keys
        if not any(other != mask and other & mask == other for other in keys)
    ]
    return sorted(minimal)


class TestKeysOnFixedRelations:
    @pytest.fixture
    def relation(self):
        return Relation(
            "ABC",
            [
                (1, 1, 1),
                (1, 2, 1),
                (2, 2, 2),
            ],
        )

    def test_agree_set_route(self, relation):
        keys = minimal_keys_via_agree_sets(relation)
        # Maximal agree sets: {A,C} and {B}; complements {B} and {A,C};
        # minimal transversals: {A,B}, {B,C}.
        key_sets = [relation.universe.to_set(key) for key in keys]
        assert sorted(key_sets, key=sorted) == [
            frozenset({"A", "B"}),
            frozenset({"B", "C"}),
        ]

    def test_oracle_route_levelwise(self, relation):
        theory = mine_minimal_keys(relation)
        assert sorted(theory.negative_border) == sorted(
            minimal_keys_via_agree_sets(relation)
        )
        # MTh = maximal agree sets.
        assert sorted(theory.maximal) == sorted(
            relation.maximal_agree_set_masks()
        )

    def test_oracle_route_dualize_advance(self, relation):
        theory = mine_minimal_keys(relation, algorithm="dualize_advance")
        assert sorted(theory.negative_border) == sorted(
            minimal_keys_via_agree_sets(relation)
        )

    def test_unknown_algorithm_rejected(self, relation):
        with pytest.raises(ValueError):
            mine_minimal_keys(relation, algorithm="nope")

    @pytest.mark.parametrize("method", ["berge", "fk", "levelwise"])
    def test_htr_engines_agree(self, relation, method):
        assert minimal_keys_via_agree_sets(
            relation, method=method
        ) == minimal_keys_via_agree_sets(relation)


class TestKeysDegenerateCases:
    def test_single_row_relation(self):
        relation = Relation("AB", [(1, 2)])
        assert minimal_keys_via_agree_sets(relation) == [0]

    def test_empty_relation(self):
        relation = Relation("AB", [])
        assert minimal_keys_via_agree_sets(relation) == [0]

    def test_duplicate_rows_have_no_keys(self):
        relation = Relation("AB", [(1, 2), (1, 2)])
        assert minimal_keys_via_agree_sets(relation) == []
        theory = mine_minimal_keys(relation)
        assert theory.negative_border == ()
        assert theory.maximal == (relation.universe.full_mask,)


class TestKeysProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_agree_sets_match_brute_force(self, rng):
        relation = _random_relation(rng)
        expected = _brute_force_minimal_keys(relation)
        assert sorted(minimal_keys_via_agree_sets(relation)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_oracle_and_agree_routes_agree(self, rng):
        relation = _random_relation(rng)
        theory = mine_minimal_keys(relation)
        assert sorted(theory.negative_border) == sorted(
            minimal_keys_via_agree_sets(relation)
        )


class TestFunctionalDependencies:
    @pytest.fixture
    def relation(self):
        # C = A mod 2 (so A → C); B is noise.
        return Relation(
            "ABC",
            [
                (0, 0, 0),
                (1, 0, 1),
                (2, 1, 0),
                (3, 1, 1),
                (2, 0, 0),
            ],
        )

    def test_fd_lhs_via_agree_sets(self, relation):
        lhs_masks = fd_lhs_via_agree_sets(relation, "C")
        reduced_sets = sorted(
            (sorted(("A", "B")[i] for i in iter_bits(mask)) for mask in lhs_masks),
        )
        assert ["A"] in reduced_sets  # A determines C

    def test_fd_oracle_route_agrees(self, relation):
        reduced_universe, predicate = fd_interestingness_predicate(
            relation, "C"
        )
        theory = levelwise(reduced_universe, predicate)
        assert sorted(theory.negative_border) == sorted(
            fd_lhs_via_agree_sets(relation, "C")
        )

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_fd_routes_agree_on_random_relations(self, rng):
        relation = _random_relation(rng, max_attributes=4)
        for rhs in relation.attributes:
            reduced_universe, predicate = fd_interestingness_predicate(
                relation, rhs
            )
            theory = levelwise(reduced_universe, predicate)
            assert sorted(theory.negative_border) == sorted(
                fd_lhs_via_agree_sets(relation, rhs)
            ), (relation.rows, rhs)

    def test_constant_column_has_empty_lhs(self):
        relation = Relation("AB", [(1, 7), (2, 7), (3, 7)])
        assert fd_lhs_via_agree_sets(relation, "B") == [0]

    def test_undeterminable_column(self):
        """Two rows equal everywhere except the RHS: no FD can hold."""
        relation = Relation("AB", [(1, 1), (1, 2)])
        assert fd_lhs_via_agree_sets(relation, "B") == []


class TestKeyPredicates:
    def test_key_predicate_is_downward_closed(self):
        relation = generate_relation_with_keys(4, 12, domain_size=3, seed=2)
        predicate = key_interestingness_predicate(relation)
        for mask in range(16):
            if predicate(mask):
                for bit_index in iter_bits(mask):
                    assert predicate(mask & ~(1 << bit_index))
