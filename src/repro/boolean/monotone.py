"""Monotone DNF and CNF representations over bitmask assignments.

A monotone term is a conjunction of positive variables, stored as a mask;
a monotone clause is a disjunction of positive variables, also a mask.
An assignment is a mask of the variables set to 1.  Monotone functions
have unique minimum representations: the prime implicants are the minimal
terms, the prime implicates the minimal clauses; both classes normalize
to that canonical form on construction, so structural equality is
function equality.

Conventions for constants follow the hypergraph ones:

* ``MonotoneDNF(u, [])`` is the constant ``0``; ``MonotoneDNF(u, [0])``
  (the empty term) is the constant ``1``.
* ``MonotoneCNF(u, [])`` is the constant ``1``; ``MonotoneCNF(u, [0])``
  (the empty clause) is the constant ``0``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.util.antichain import maximize_masks, minimize_masks
from repro.util.bitset import Universe, rank_sorted


class MonotoneDNF:
    """A monotone Boolean function in disjunctive normal form.

    Args:
        universe: variable universe fixing the bit indexing.
        term_masks: the terms; reduced to the minimal antichain (the
            prime implicants of the represented function).
    """

    __slots__ = ("universe", "terms")

    def __init__(self, universe: Universe, term_masks: Iterable[int]):
        self.universe = universe
        terms = minimize_masks(term_masks)
        for term in terms:
            if term & ~universe.full_mask:
                raise ValueError("term uses variables outside the universe")
        self.terms: tuple[int, ...] = tuple(terms)

    @classmethod
    def from_sets(
        cls, universe: Universe, term_sets: Iterable[Iterable]
    ) -> "MonotoneDNF":
        """Build from item-set terms, e.g. ``[{"A", "D"}, {"C", "D"}]``."""
        return cls(universe, (universe.to_mask(term) for term in term_sets))

    @classmethod
    def constant(cls, universe: Universe, value: bool) -> "MonotoneDNF":
        """The constant function ``value`` as a DNF."""
        return cls(universe, [0] if value else [])

    def __call__(self, assignment: int) -> bool:
        """Evaluate at an assignment mask: true iff some term ⊆ assignment."""
        return any(term & assignment == term for term in self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonotoneDNF)
            and self.universe == other.universe
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.terms))

    def __len__(self) -> int:
        """Number of terms (``|DNF(f)|`` in the paper's bounds)."""
        return len(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "MonotoneDNF(false)"
        if self.terms == (0,):
            return "MonotoneDNF(true)"
        rendered = " ∨ ".join(self.universe.label(term) for term in self.terms)
        return f"MonotoneDNF({rendered})"

    def is_constant_false(self) -> bool:
        """True for the empty disjunction."""
        return not self.terms

    def is_constant_true(self) -> bool:
        """True when the empty term is present."""
        return self.terms == (0,)

    def term_sets(self) -> list[frozenset]:
        """The prime implicants as ``frozenset`` objects."""
        return [self.universe.to_set(term) for term in self.terms]


class MonotoneCNF:
    """A monotone Boolean function in conjunctive normal form.

    Clauses normalize to the minimal antichain — the prime implicates of
    the represented function.
    """

    __slots__ = ("universe", "clauses")

    def __init__(self, universe: Universe, clause_masks: Iterable[int]):
        self.universe = universe
        clauses = minimize_masks(clause_masks)
        for clause in clauses:
            if clause & ~universe.full_mask:
                raise ValueError("clause uses variables outside the universe")
        self.clauses: tuple[int, ...] = tuple(clauses)

    @classmethod
    def from_sets(
        cls, universe: Universe, clause_sets: Iterable[Iterable]
    ) -> "MonotoneCNF":
        """Build from item-set clauses, e.g. ``[{"A", "C"}, {"D"}]``."""
        return cls(universe, (universe.to_mask(clause) for clause in clause_sets))

    @classmethod
    def constant(cls, universe: Universe, value: bool) -> "MonotoneCNF":
        """The constant function ``value`` as a CNF."""
        return cls(universe, [] if value else [0])

    def __call__(self, assignment: int) -> bool:
        """Evaluate at an assignment mask: true iff every clause is hit."""
        return all(clause & assignment for clause in self.clauses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonotoneCNF)
            and self.universe == other.universe
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.clauses))

    def __len__(self) -> int:
        """Number of clauses (``|CNF(f)|`` in the paper's bounds)."""
        return len(self.clauses)

    def __repr__(self) -> str:
        if not self.clauses:
            return "MonotoneCNF(true)"
        if self.clauses == (0,):
            return "MonotoneCNF(false)"
        rendered = "".join(
            f"({self.universe.label(clause, sep='∨')})" for clause in self.clauses
        )
        return f"MonotoneCNF({rendered})"

    def is_constant_true(self) -> bool:
        """True for the empty conjunction."""
        return not self.clauses

    def is_constant_false(self) -> bool:
        """True when the empty clause is present."""
        return self.clauses == (0,)

    def clause_sets(self) -> list[frozenset]:
        """The prime implicates as ``frozenset`` objects."""
        return [self.universe.to_set(clause) for clause in self.clauses]


def minimal_true_points(
    function: Callable[[int], bool], n_variables: int
) -> list[int]:
    """Brute-force minimal true points of a monotone function.

    These are exactly the prime implicants (the DNF terms).  Exponential
    scan; intended as ground truth in tests with small ``n``.
    """
    true_points = [
        mask for mask in range(1 << n_variables) if function(mask)
    ]
    return minimize_masks(true_points)


def maximal_false_points(
    function: Callable[[int], bool], n_variables: int
) -> list[int]:
    """Brute-force maximal false points of a monotone function.

    Their complements are the prime implicates (the CNF clauses); in the
    mining correspondence they are exactly ``MTh`` (Example 25).
    """
    false_points = [
        mask for mask in range(1 << n_variables) if not function(mask)
    ]
    return rank_sorted(maximize_masks(false_points))


def is_monotone(function: Callable[[int], bool], n_variables: int) -> bool:
    """Exhaustively check monotonicity (tests only; ``O(n · 2^n)``)."""
    for mask in range(1 << n_variables):
        if not function(mask):
            continue
        for bit_index in range(n_variables):
            superset = mask | (1 << bit_index)
            if not function(superset):
                return False
    return True
