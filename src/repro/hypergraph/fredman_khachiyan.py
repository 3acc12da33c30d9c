"""The Fredman–Khachiyan monotone-duality test, with witness extraction.

Fredman and Khachiyan [FK96, cited as [10] in the paper] gave a
quasi-polynomial algorithm that, given two monotone DNFs ``f`` and ``g``
(each a simple hypergraph of term-masks), decides whether
``g = f^d`` — i.e. whether ``g(a) = ¬f(V \\ a)`` for every assignment
``a`` — and otherwise produces a *witness* assignment violating the
identity.  Duality testing is the engine behind incremental transversal
enumeration (Corollary 22 of the paper): when ``G ⊆ Tr(H)`` is not yet
complete, the witness is a transversal of ``H`` containing no member of
``G``, and greedy minimization turns it into a fresh minimal transversal.

The implementation follows the FK "algorithm A" recursion::

    f = x·f1 ∨ f0        g = x·g1 ∨ g0      (split on a variable x)

    f, g dual over V  ⟺  (f0, g0 ∨ g1) dual over V\\{x}
                       and (f0 ∨ f1, g0) dual over V\\{x}

with the FK branching rule (split on the most frequent variable).  The
recursion is exact regardless of the variable choice; the choice only
affects running time.  Witnesses lift through the recursion: a witness of
the first subproblem gains ``x``, a witness of the second stays as is.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.obs.tracer import NULL_TRACER, as_tracer
from repro.util.antichain import merge_antichains, minimize_masks
from repro.util.bitset import iter_bits


@dataclass(frozen=True)
class DualityWitness:
    """An assignment showing two monotone DNFs are *not* dual.

    Attributes:
        assignment: a variable mask ``a`` with ``g(a) == f(V \\ a)``.
        kind: ``"both_false"`` when ``g(a) = f(V\\a) = 0`` (the useful case
            for transversal enumeration: ``a`` is then a transversal of
            the ``f``-hypergraph containing no ``g``-term) or
            ``"both_true"`` (some ``f``-term and ``g``-term are disjoint,
            which cannot happen when ``g ⊆ Tr(f)``).
    """

    assignment: int
    kind: str


def _evaluate_dnf(terms: Sequence[int], assignment: int) -> bool:
    """Evaluate a monotone DNF (term masks) at an assignment mask."""
    return any(term & assignment == term for term in terms)


_VARIABLE_RULES = ("max_frequency", "lowest_index")


def check_duality(
    f_terms: Sequence[int],
    g_terms: Sequence[int],
    variables_mask: int,
    variable_rule: str = "max_frequency",
    budget=None,
    tracer=None,
) -> DualityWitness | None:
    """Test whether two monotone DNFs are dual over the given variables.

    Args:
        f_terms: term masks of ``f`` (a hypergraph; minimized internally).
        g_terms: term masks of ``g``.
        variables_mask: mask of the variable set ``V``; terms must be
            subsets of it.
        variable_rule: branching-variable choice — ``"max_frequency"``
            (the FK rule, default) or ``"lowest_index"`` (naive;
            correct but without the quasi-polynomial guarantee — kept
            for the ablation benchmark).
        budget: optional :class:`~repro.runtime.budget.Budget`; the
            wall clock and the live sub-DNF size (``|f| + |g|`` at the
            current recursion node) are checked once per node, so a
            quasi-polynomial blow-up surfaces as
            :class:`~repro.core.errors.BudgetExhausted` instead of an
            unbounded hang.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; an
            ``fk.check`` span wraps the test, every recursion node emits
            an ``fk.node`` event (depth and sub-DNF sizes — the measured
            quasi-polynomial tree), and a non-dual outcome emits
            ``fk.witness`` with its kind.

    Returns:
        ``None`` when ``g = f^d``, otherwise a :class:`DualityWitness`.
    """
    if variable_rule not in _VARIABLE_RULES:
        raise ValueError(
            f"unknown variable_rule {variable_rule!r}; "
            f"expected one of {_VARIABLE_RULES}"
        )
    f_minimized = minimize_masks(f_terms)
    g_minimized = minimize_masks(g_terms)
    for term in (*f_minimized, *g_minimized):
        if term & ~variables_mask:
            raise ValueError("term uses variables outside variables_mask")
    tracer = as_tracer(tracer)
    with tracer.span(
        "fk.check", f_terms=len(f_minimized), g_terms=len(g_minimized)
    ) as check_span:
        # Cheap global screen for "both true" witnesses: some f-term
        # disjoint from some g-term.  (The recursion would also find
        # these, but the screen gives the FK analysis its intersection
        # precondition and makes the common misuse — passing
        # non-transversals — fail fast.)
        for f_term in f_minimized:
            for g_term in g_minimized:
                if f_term & g_term == 0:
                    assignment = variables_mask & ~f_term
                    if tracer.enabled:
                        tracer.event("fk.witness", kind="both_true")
                        check_span.note(dual=False)
                    return DualityWitness(
                        assignment=assignment, kind="both_true"
                    )
        witness = _check_recursive(
            f_minimized,
            g_minimized,
            variables_mask,
            variable_rule,
            budget,
            tracer,
        )
        if witness is None:
            if tracer.enabled:
                check_span.note(dual=True)
            return None
        complement = variables_mask & ~witness
        kind = (
            "both_true"
            if _evaluate_dnf(f_minimized, complement)
            else "both_false"
        )
        if tracer.enabled:
            tracer.event("fk.witness", kind=kind)
            check_span.note(dual=False)
        return DualityWitness(assignment=witness, kind=kind)


def _check_recursive(
    f_terms: list[int],
    g_terms: list[int],
    variables_mask: int,
    variable_rule: str = "max_frequency",
    budget=None,
    tracer=NULL_TRACER,
    depth: int = 0,
) -> int | None:
    """Core recursion; returns a witness mask or ``None`` when dual.

    Both inputs are minimized antichains over ``variables_mask``.
    """
    if budget is not None:
        budget.check(family=len(f_terms) + len(g_terms))
    if tracer.enabled:
        tracer.event(
            "fk.node",
            depth=depth,
            f_terms=len(f_terms),
            g_terms=len(g_terms),
        )
    # Constant cases.  f ≡ 0 iff no terms; f ≡ 1 iff the empty term is
    # present (after minimization the empty term is then the only term).
    if not f_terms:
        # f ≡ 0, dual would be g ≡ 1.
        if g_terms == [0]:
            return None
        # Witness a = ∅: g(∅) = 0 and f(V \ ∅) = 0.
        return 0
    if f_terms == [0]:
        # f ≡ 1, dual would be g ≡ 0.
        if not g_terms:
            return None
        # Witness a = any g-term: g(a) = 1 and f(V \ a) = 1.
        return g_terms[0]
    if not g_terms:
        # g ≡ 0 but f is not ≡ 1: witness a = V (g(V)=0, f(∅)=0).
        return variables_mask
    if g_terms == [0]:
        # g ≡ 1 but f is not ≡ 0: witness a = V \ E for any f-term E.
        return variables_mask & ~f_terms[0]

    if variable_rule == "max_frequency":
        split_bit = _most_frequent_variable(f_terms, g_terms)
    else:
        occupied = 0
        for term in f_terms:
            occupied |= term
        for term in g_terms:
            occupied |= term
        split_bit = (occupied & -occupied).bit_length() - 1
    x = 1 << split_bit
    remaining = variables_mask & ~x

    # Splitting a minimized antichain on a variable yields two antichains
    # (removing one shared bit preserves incomparability), so the ∨-fusions
    # below need only cross-family subsumption, not a full re-minimization.
    f1 = [term & ~x for term in f_terms if term & x]
    f0 = [term for term in f_terms if not term & x]
    g1 = [term & ~x for term in g_terms if term & x]
    g0 = [term for term in g_terms if not term & x]

    # Subproblem for assignments containing x: (f0)^d must equal g0 ∨ g1.
    witness = _check_recursive(
        f0,
        merge_antichains(g0, g1),
        remaining,
        variable_rule,
        budget,
        tracer,
        depth + 1,
    )
    if witness is not None:
        return witness | x
    # Subproblem for assignments missing x: (f0 ∨ f1)^d must equal g0.
    witness = _check_recursive(
        merge_antichains(f0, f1),
        g0,
        remaining,
        variable_rule,
        budget,
        tracer,
        depth + 1,
    )
    if witness is not None:
        return witness
    return None


def _most_frequent_variable(f_terms: list[int], g_terms: list[int]) -> int:
    """FK branching rule: the variable occurring in the most terms."""
    counts: dict[int, int] = {}
    for term in f_terms:
        for bit_index in iter_bits(term):
            counts[bit_index] = counts.get(bit_index, 0) + 1
    for term in g_terms:
        for bit_index in iter_bits(term):
            counts[bit_index] = counts.get(bit_index, 0) + 1
    # Non-constant minimized DNFs always contain a variable.
    return max(counts, key=lambda bit_index: (counts[bit_index], -bit_index))


def find_new_minimal_transversal(
    edge_masks: Sequence[int],
    known_transversals: Sequence[int],
    variables_mask: int,
    budget=None,
    tracer=None,
) -> int | None:
    """Incremental dualization step (the engine of Corollary 22).

    Given a hypergraph and a partial family ``G`` of its minimal
    transversals, return one more minimal transversal not in ``G``, or
    ``None`` when ``G = Tr(H)`` already.

    Args:
        edge_masks: the hypergraph edges (non-empty; minimized internally).
        known_transversals: previously found *minimal* transversals.
        variables_mask: the vertex universe mask.
        budget: optional :class:`~repro.runtime.budget.Budget`, passed to
            the duality-test recursion (wall clock + sub-DNF size).
        tracer: optional :class:`~repro.obs.tracer.Tracer`, passed to
            :func:`check_duality`.

    Raises:
        ValueError: when ``known_transversals`` contains a set that is not
            a minimal transversal (detected via a "both true" witness or a
            direct precondition failure in the returned candidate).
    """
    edges = minimize_masks(edge_masks)
    if edges and edges[0] == 0:
        raise ValueError("edges must be non-empty")
    if not edges:
        # Tr(∅) = {∅}: the empty set is the only minimal transversal.
        return None if 0 in known_transversals else 0
    witness = check_duality(
        edges, known_transversals, variables_mask, budget=budget,
        tracer=tracer,
    )
    if witness is None:
        return None
    if witness.kind == "both_true":
        raise ValueError(
            "known_transversals is not a subfamily of Tr(H): "
            "a known set misses some edge's complement structure"
        )
    # Both-false witness: the assignment hits every edge and contains no
    # known transversal; shrink it to a minimal transversal.
    candidate = witness.assignment
    for edge in edges:
        if not candidate & edge:
            raise AssertionError("witness is not a transversal")  # pragma: no cover
    return _greedy_minimize(edges, candidate)


def _greedy_minimize(edges: Sequence[int], transversal: int) -> int:
    """Drop vertices one at a time while the set stays a transversal."""
    for bit_index in iter_bits(transversal):
        reduced = transversal & ~(1 << bit_index)
        if all(reduced & edge for edge in edges):
            transversal = reduced
    return transversal
