"""Functional-dependency inference and Armstrong relations.

Section 3 of the paper notes that "the problem of translating between a
set of functional dependencies and their corresponding Armstrong
relation [16, 17] is at least as hard as [the hypergraph-transversal
problem] and equivalent to it in special cases".  This module implements
that translation in both directions:

* **FDs → Armstrong relation** (:func:`armstrong_relation`): build a
  relation that satisfies *exactly* the dependencies implied by a given
  FD set.  The construction materializes, per attribute ``A``, the
  maximal attribute sets whose closure misses ``A`` (the *max sets* of
  Mannila–Räihä) — found here by running the library's own
  Dualize-and-Advance miner on the monotone predicate
  ``q(X) = "A ∉ closure(X)"``, a neat self-application of the framework —
  and adds one row per max set agreeing with a base row exactly there.
* **Relation → FDs** is the agree-set route already provided by
  :mod:`repro.instances.functional_dependencies`; composing the two is a
  round trip that the test suite verifies: the FDs mined from
  ``armstrong_relation(F)`` are exactly the closure of ``F``.

Closure computation (:func:`fd_closure`) is the classic linear-pass
fixpoint; it is the only inference primitive needed.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.datasets.relations import Relation
from repro.mining.dualize_advance import dualize_and_advance
from repro.util.bitset import Universe, iter_bits, popcount, rank_sorted


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``lhs → rhs`` over named attributes.

    ``lhs`` is a frozenset of attribute names; ``rhs`` a single
    attribute.  Trivial dependencies (``rhs ∈ lhs``) are allowed as
    inputs and simply carry no information.
    """

    lhs: frozenset
    rhs: Hashable

    def __str__(self) -> str:
        left = ",".join(sorted(map(str, self.lhs))) or "∅"
        return f"{left} → {self.rhs}"


def fd_closure(
    attribute_mask: int,
    fds: Sequence[tuple[int, int]],
) -> int:
    """Closure of an attribute mask under FDs given as (lhs, rhs) masks.

    Standard fixpoint: repeatedly add the right-hand sides of
    dependencies whose left-hand sides are contained in the current set.
    ``O(|fds| · n)`` with the simple two-pass loop used here.
    """
    closure = attribute_mask
    changed = True
    while changed:
        changed = False
        for lhs_mask, rhs_mask in fds:
            if lhs_mask & closure == lhs_mask and rhs_mask & closure != rhs_mask:
                closure |= rhs_mask
                changed = True
    return closure


def compile_fds(
    universe: Universe, fds: Iterable[FunctionalDependency]
) -> list[tuple[int, int]]:
    """Compile named FDs into (lhs-mask, rhs-mask) pairs."""
    compiled = []
    for fd in fds:
        lhs_mask = universe.to_mask(fd.lhs)
        rhs_mask = 1 << universe.index_of(fd.rhs)
        compiled.append((lhs_mask, rhs_mask))
    return compiled


def implies(
    universe: Universe,
    fds: Iterable[FunctionalDependency],
    candidate: FunctionalDependency,
) -> bool:
    """Armstrong-axiom implication test: ``F ⊨ X → A``.

    Equivalent to ``A ∈ closure(X)``; no axiomatic search needed.
    """
    compiled = compile_fds(universe, fds)
    lhs_mask = universe.to_mask(candidate.lhs)
    rhs_bit = 1 << universe.index_of(candidate.rhs)
    return bool(fd_closure(lhs_mask, compiled) & rhs_bit)


def max_sets(
    universe: Universe,
    fds: Iterable[FunctionalDependency],
    rhs: Hashable,
) -> list[int]:
    """The maximal attribute sets whose closure misses ``rhs``.

    These are the *max sets* ``max(F, A)`` of Mannila–Räihä — exactly
    ``MTh`` of the monotone mining problem
    ``q(X) = "rhs ∉ closure_F(X)"``, so the library's own
    Dualize-and-Advance computes them.  When even the empty set
    determines ``rhs`` (e.g. a constant attribute) the result is empty.
    """
    compiled = compile_fds(universe, fds)
    rhs_bit = 1 << universe.index_of(rhs)

    def misses_rhs(mask: int) -> bool:
        return not fd_closure(mask, compiled) & rhs_bit

    result = dualize_and_advance(universe, misses_rhs)
    return list(result.maximal)


def armstrong_relation(
    attributes: Sequence[Hashable],
    fds: Iterable[FunctionalDependency],
) -> Relation:
    """Construct an Armstrong relation for an FD set.

    The relation satisfies ``X → A`` **iff** ``F ⊨ X → A``:

    * a base row of zeros;
    * for every (deduplicated, maximized) max set ``C`` across all
      attributes, a row that agrees with the base row exactly on ``C``
      (fresh values elsewhere).

    Agreement with the base row on exactly the closed max sets makes
    every non-implied dependency fail while implied ones survive — the
    classic construction of [16].
    """
    universe = Universe(attributes)
    fd_list = list(fds)
    generator_masks: set[int] = set()
    for rhs in universe.items:
        generator_masks.update(max_sets(universe, fd_list, rhs))
    # Deduplicate but do NOT maximize across attributes: a max set for A
    # that sits inside a max set for B is still needed — its row is the
    # witness that refutes non-implied dependencies into A.
    witnesses = sorted(generator_masks)

    width = len(universe)
    rows: list[tuple[int, ...]] = [tuple(0 for _ in range(width))]
    for row_number, witness in enumerate(
        rank_sorted(witnesses), start=1
    ):
        row = [
            0 if witness >> column & 1 else row_number * width + column + 1
            for column in range(width)
        ]
        rows.append(tuple(row))
    return Relation(universe.items, rows)


def implied_fds(
    universe: Universe,
    fds: Iterable[FunctionalDependency],
    max_lhs_size: int | None = None,
) -> list[FunctionalDependency]:
    """All non-trivial implied dependencies with *minimal* left-hand sides.

    For each attribute the minimal determining sets are the negative
    border of the max-set theory — one more transversal computation,
    performed by :func:`max_sets`' Dualize-and-Advance run implicitly.
    Exponential in the worst case (as it must be); ``max_lhs_size``
    truncates for display purposes.
    """
    compiled = compile_fds(universe, fds)
    results: list[FunctionalDependency] = []
    for rhs in universe.items:
        rhs_bit = 1 << universe.index_of(rhs)

        def misses_rhs(mask: int, _rhs_bit=rhs_bit) -> bool:
            return not fd_closure(mask, compiled) & _rhs_bit

        mined = dualize_and_advance(universe, misses_rhs)
        for lhs_mask in mined.negative_border:
            if lhs_mask & rhs_bit:
                continue  # trivial: rhs on both sides
            if max_lhs_size is not None and popcount(lhs_mask) > max_lhs_size:
                continue
            results.append(
                FunctionalDependency(
                    lhs=frozenset(
                        universe.item_at(i) for i in iter_bits(lhs_mask)
                    ),
                    rhs=rhs,
                )
            )
    return results
