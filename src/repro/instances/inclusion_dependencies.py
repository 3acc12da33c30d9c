"""Inclusion dependencies as a MaxTh instance.

An inclusion dependency ``R[X] ⊆ S[Y]`` (with ``X``, ``Y`` equal-length
attribute sequences) holds when every projection of an ``R``-row on
``X`` occurs among projections of ``S``-rows on ``Y``.  Following the
framework, a *sentence* is a set of attribute **pairs**
``{(A₁,B₁), …, (A_k,B_k)}``; the sentence asserts the IND built from
those pairs (in a fixed canonical order).  Validity is downward closed —
projecting a valid inclusion keeps it valid — so ``q`` is monotone and
the language is representable as sets over the pair universe
(the paper's Section 2/3 claim for inclusion dependencies).

``MTh`` is the family of maximal valid INDs; its negative border the
minimal invalid ones.
"""

from __future__ import annotations

import random

from repro.core.oracle import CountingOracle
from repro.core.theory import Theory
from repro.datasets.relations import Relation
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.util.bitset import Universe, iter_bits


class InclusionPredicate:
    """``q(P) = "the IND with pair set P holds between two relations"``.

    Args:
        source: the relation providing the left-hand side ``R``.
        target: the relation providing the right-hand side ``S``.
        pair_universe: universe of ``(source_attr, target_attr)`` pairs;
            defaults to the full cross product.

    The empty pair set is vacuously valid, as the framework's always-
    interesting bottom element.
    """

    __slots__ = ("source", "target", "universe")

    def __init__(
        self,
        source: Relation,
        target: Relation,
        pair_universe: Universe | None = None,
    ):
        self.source = source
        self.target = target
        if pair_universe is None:
            pairs = [
                (a, b)
                for a in source.attributes
                for b in target.attributes
            ]
            pair_universe = Universe(pairs)
        self.universe = pair_universe

    def __call__(self, pair_mask: int) -> bool:
        pairs = [self.universe.item_at(i) for i in iter_bits(pair_mask)]
        if not pairs:
            return True
        source_indices = [
            self.source.universe.index_of(a) for a, _ in pairs
        ]
        target_indices = [
            self.target.universe.index_of(b) for _, b in pairs
        ]
        target_projections = {
            tuple(row[i] for i in target_indices) for row in self.target.rows
        }
        for row in self.source.rows:
            if tuple(row[i] for i in source_indices) not in target_projections:
                return False
        return True


def unary_inclusion_dependencies(
    source: Relation, target: Relation
) -> list[tuple]:
    """All valid unary INDs ``R[A] ⊆ S[B]`` as attribute pairs."""
    predicate = InclusionPredicate(source, target)
    valid: list[tuple] = []
    for index, pair in enumerate(predicate.universe.items):
        if predicate(1 << index):
            valid.append(pair)
    return valid


def mine_inclusion_dependencies(
    source: Relation,
    target: Relation,
    algorithm: str = "levelwise",
    restrict_to_unary_valid: bool = True,
    seed: int | random.Random | None = None,
    method: str = "fk",
) -> Theory:
    """Mine maximal valid INDs between two relations.

    Args:
        source: left-hand relation ``R``.
        target: right-hand relation ``S``.
        algorithm: ``"levelwise"`` or ``"dualize_advance"``.
        restrict_to_unary_valid: prune the pair universe to individually
            valid pairs first (standard IND-mining preprocessing; it
            changes no results because an IND containing an invalid pair
            is invalid, but it shrinks the lattice).
        seed: RNG seed for the D&A extension order.
        method: transversal engine behind ``"dualize_advance"``
            (``"fk"``, ``"berge"``, or ``"mmcs"``); ignored by the
            levelwise route.

    Returns:
        A :class:`~repro.core.theory.Theory` over the pair universe;
        masks decode to pair sets via ``theory.maximal_sets()``.
    """
    if restrict_to_unary_valid:
        pairs = unary_inclusion_dependencies(source, target)
        universe = Universe(pairs)
    else:
        universe = InclusionPredicate(source, target).universe
    predicate = CountingOracle(
        InclusionPredicate(source, target, pair_universe=universe),
        name="ind-valid",
    )
    if algorithm == "levelwise":
        return levelwise(universe, predicate)
    if algorithm == "dualize_advance":
        return dualize_and_advance(
            universe, predicate, engine=method, shuffle=seed
        )
    raise ValueError(
        f"unknown algorithm {algorithm!r}; "
        "expected 'levelwise' or 'dualize_advance'"
    )
