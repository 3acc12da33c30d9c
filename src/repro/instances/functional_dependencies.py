"""Keys and functional dependencies as MaxTh instances.

Two routes, both from the paper:

* **Oracle route** (Sections 2–5): "X is not a superkey" is a monotone,
  downward-closed interestingness predicate; its ``MTh`` is the family
  of maximal non-keys and its negative border is exactly the set of
  *minimal keys*.  Any of the miners applies.
* **Agree-set route** (Section 5's closing remark, after [16]): compute
  the maximal agree sets of the relation directly — ``X`` is a non-key
  iff some pair of rows agrees on all of ``X`` — and obtain the minimal
  keys as one hypergraph-transversal computation over the complements.
  "A single run of an HTR subroutine suffices."

The same machinery handles FDs with a fixed right-hand side ``A``:
``X → A`` fails iff some maximal agree set contains ``X`` but not ``A``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable

from repro.core.oracle import CountingOracle
from repro.core.theory import Theory
from repro.datasets.relations import Relation
from repro.hypergraph.enumeration import minimal_transversals
from repro.hypergraph.hypergraph import Hypergraph
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.util.antichain import maximize_masks
from repro.util.bitset import Universe, iter_bits


def key_interestingness_predicate(
    relation: Relation,
) -> Callable[[int], bool]:
    """The monotone predicate ``q(X) = "X is not a superkey"``.

    Downward closed: a subset of a non-key is a non-key.  Its theory's
    negative border is the family of minimal keys.
    """

    def is_not_superkey(mask: int) -> bool:
        return not relation.is_superkey(mask)

    return is_not_superkey


def fd_interestingness_predicate(
    relation: Relation, rhs: Hashable
) -> tuple[Universe, Callable[[int], bool]]:
    """Predicate ``q(X) = "X does not determine rhs"`` over ``R \\ {rhs}``.

    Returns the reduced universe (attributes minus the right-hand side)
    together with the predicate on masks over that universe; the negative
    border of the resulting theory is the family of minimal LHSs of valid
    FDs ``X → rhs``.
    """
    rhs_index = relation.universe.index_of(rhs)
    reduced_attributes = [
        attribute for attribute in relation.attributes if attribute != rhs
    ]
    reduced_universe = Universe(reduced_attributes)

    def does_not_determine(mask: int) -> bool:
        original_mask = relation.universe.to_mask(
            reduced_universe.item_at(i) for i in iter_bits(mask)
        )
        return not relation.satisfies_fd(original_mask, rhs_index)

    return reduced_universe, does_not_determine


def minimal_keys_via_agree_sets(
    relation: Relation, method: str = "berge"
) -> list[int]:
    """Minimal keys by one transversal computation over agree-set
    complements (the [16] construction).

    A set is a key iff it hits the complement of every (maximal) agree
    set.  Degenerate case: with at most one row every set, including the
    empty one, is a key — the agree-set family is empty and the unique
    minimal key is ``∅``.
    """
    maximal_agree = relation.maximal_agree_set_masks()
    full = relation.universe.full_mask
    complements = [full & ~mask for mask in maximal_agree]
    if not complements:
        return [0]
    if any(complement == 0 for complement in complements):
        # Two identical rows: nothing distinguishes them, no keys exist.
        return []
    hypergraph = Hypergraph(relation.universe, complements, validate=False)
    return minimal_transversals(hypergraph, method=method)


def fd_lhs_via_agree_sets(
    relation: Relation, rhs: Hashable, method: str = "berge"
) -> list[int]:
    """Minimal LHSs of valid FDs ``X → rhs``, via agree sets.

    ``X → rhs`` (with ``X ⊆ R \\ {rhs}``) holds iff ``X`` hits
    ``(R \\ S) \\ {rhs}`` for every maximal agree set ``S`` not
    containing ``rhs``.  Returned masks live over the *reduced* universe
    of :func:`fd_interestingness_predicate` for direct comparability with
    the oracle route.

    Degenerate cases: when no maximal agree set misses ``rhs`` the empty
    LHS works (``rhs`` never disagrees when anything agrees) and the
    result is ``[∅]``; when some agree set equals ``R \\ {rhs}`` no LHS
    can work and the result is empty.
    """
    rhs_bit = 1 << relation.universe.index_of(rhs)
    full = relation.universe.full_mask
    # The binding agree sets are the maximal ones *among those missing
    # the RHS* — a globally maximal agree set containing the RHS can
    # subsume smaller RHS-free agree sets that still forbid LHS choices.
    rhs_free = maximize_masks(
        [s for s in relation.agree_set_masks() if not s & rhs_bit]
    )
    edges = [(full & ~agree) & ~rhs_bit for agree in rhs_free]
    reduced_attributes = [
        attribute for attribute in relation.attributes if attribute != rhs
    ]
    reduced_universe = Universe(reduced_attributes)
    if not edges:
        return [0]
    if any(edge == 0 for edge in edges):
        return []
    reduced_edges = [
        reduced_universe.to_mask(
            relation.universe.item_at(i) for i in iter_bits(edge)
        )
        for edge in edges
    ]
    hypergraph = Hypergraph(reduced_universe, reduced_edges, validate=False)
    return minimal_transversals(hypergraph, method=method)


def mine_minimal_keys(
    relation: Relation,
    algorithm: str = "levelwise",
    seed: int | random.Random | None = None,
    method: str = "fk",
) -> Theory:
    """Mine maximal non-keys (``MTh``) and minimal keys (``Bd-``) through
    the ``Is-interesting`` oracle only.

    The paper highlights that this works "even if the access to the
    database is restricted to Is-interesting queries" — contrast with
    :func:`minimal_keys_via_agree_sets`, which reads the data directly.

    ``method`` selects the transversal engine behind
    ``algorithm="dualize_advance"`` (``"fk"``, ``"berge"``, or
    ``"mmcs"``); the levelwise route does not dualize and ignores it.
    """
    predicate = CountingOracle(
        key_interestingness_predicate(relation), name="not-superkey"
    )
    universe = relation.universe
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
