"""Berge multiplication: the classical minimal-transversal algorithm.

``Tr(H)`` is computed edge by edge: the minimal transversals of the first
``i`` edges are combined with the ``(i+1)``-th edge by distributing
(every current transversal either already hits the new edge or is extended
by one of its vertices) and re-minimizing.  Worst-case exponential in
intermediate size — Example 19 of the paper is exactly such a family —
but it is simple, exact, and a good reference implementation against
which the Fredman–Khachiyan path and the levelwise special case are
cross-validated.

Since PR 1 the re-minimization is not a fresh ``O(m²)`` pass per edge:
a live :class:`~repro.util.antichain.AntichainIndex` is kept across
multiplication steps.  Two structural facts make the step cheap:

* transversals that already hit the new edge stay minimal and can never
  be subsumed by an extension, so they are carried over untouched;
* extensions of equal cardinality are mutually incomparable, so each
  popcount level only queries the index, never its own level.

On the Example 19 matching family (all intermediate transversals share
one cardinality) the step degenerates to deduplication — the source of
the order-of-magnitude speedup recorded in ``BENCH_PR1.json``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby

from repro.core.errors import BudgetExhausted
from repro.obs.tracer import as_tracer
from repro.util.antichain import AntichainIndex, minimize_masks
from repro.util.bitset import iter_bits, rank_sorted


def _multiply_into(index: AntichainIndex, edge: int, budget=None) -> None:
    """One Berge multiplication step, in place on the live index.

    With a :class:`~repro.runtime.budget.Budget`, the live family size
    and the wall clock are checked at entry and after each cardinality
    level of extensions — the finest consistent boundary.  A raise
    leaves ``index`` mid-multiplication; callers that must keep a
    consistent family check the budget *before* calling instead.
    """
    if budget is not None:
        budget.check(family=len(index))
    non_hitters = [t for t in index if not t & edge]
    if not non_hitters:
        return
    index.discard_many(set(non_hitters))
    bits = [1 << bit_index for bit_index in iter_bits(edge)]
    extended = {t | bit for t in non_hitters for bit in bits}
    # Equal-cardinality extensions cannot subsume each other, so each
    # level is screened against the index and registered wholesale.
    for _, level in groupby(rank_sorted(extended), key=int.bit_count):
        survivors = [cand for cand in level if not index.covers(cand)]
        for cand in survivors:
            index.add_unchecked(cand)
        if budget is not None:
            budget.check(family=len(index))


def berge_step(
    transversals: Sequence[int] | None, new_edge: int, budget=None
) -> list[int]:
    """Fold one edge into a minimal-transversal family.

    Args:
        transversals: the current minimal transversals (an antichain),
            or ``None`` for the first edge.
        new_edge: the edge mask being multiplied in (non-empty).

    Returns:
        ``min({T : T ∩ e ≠ ∅} ∪ {T ∪ {v} : T ∩ e = ∅, v ∈ e})`` sorted
        by (cardinality, value).  This is the incremental-dualization
        primitive shared with Dualize and Advance, where iteration
        ``i+1``'s complement family differs from iteration ``i``'s by a
        single edge.

    With ``budget``, a :class:`~repro.core.errors.BudgetExhausted` raise
    mid-step discards only the local scratch index — the caller's input
    family is untouched, so an incremental dualizer stays consistent.
    """
    if transversals is None:
        return [1 << bit_index for bit_index in iter_bits(new_edge)]
    index = AntichainIndex(transversals, assume_antichain=True)
    _multiply_into(index, new_edge, budget=budget)
    return index.sorted_masks()


def berge_transversal_masks(
    edge_masks: Sequence[int], budget=None, tracer=None
) -> list[int]:
    """Minimal transversals of a family of edge masks, via multiplication.

    Args:
        edge_masks: the edges; they need not be minimized (the family is
            minimized first, which does not change its transversals).
        budget: optional :class:`~repro.runtime.budget.Budget`; checked
            at every edge boundary (a consistent intermediate family),
            so one multiplication step is the overshoot unit.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; a
            ``berge.run`` span wraps the whole multiplication and each
            folded edge gets a ``berge.edge`` span whose ``family_in`` /
            ``family_out`` sizes plot the Example 19 intermediate
            blow-up directly from the trace.

    Returns:
        The minimal transversal masks sorted by (cardinality, value).
        ``[0]`` (just the empty set) for an empty family; ``[]`` when some
        edge is empty (nothing can hit the empty edge).

    Raises:
        BudgetExhausted: when the budget trips; ``partial`` carries a
            :class:`~repro.runtime.partial.PartialDualization` — the
            minimal transversals of the processed edge prefix, a sound
            under-approximation of the full hitting requirement.
    """
    tracer = as_tracer(tracer)
    edges = minimize_masks(edge_masks)
    if not edges:
        return [0]
    if edges[0] == 0:
        return []

    with tracer.span("berge.run", edges=len(edges)) as run_span:
        # Process small edges first (minimize_masks sorts by
        # cardinality): they branch least, keeping the intermediate
        # antichain small longer.
        index = AntichainIndex(
            (1 << bit_index for bit_index in iter_bits(edges[0])),
            assume_antichain=True,
        )
        for position, edge in enumerate(edges[1:], start=1):
            if budget is not None:
                try:
                    budget.check(family=len(index))
                except BudgetExhausted as exhausted:
                    from repro.runtime.partial import PartialDualization

                    if tracer.enabled:
                        run_span.note(
                            outcome="partial", reason=exhausted.reason
                        )
                    raise BudgetExhausted(
                        exhausted.reason,
                        str(exhausted),
                        partial=PartialDualization(
                            reason=exhausted.reason,
                            family=tuple(index.sorted_masks()),
                            processed_edges=tuple(edges[:position]),
                            remaining_edges=tuple(edges[position:]),
                        ),
                    ) from exhausted
            if tracer.enabled:
                with tracer.span(
                    "berge.edge", index=position, family_in=len(index)
                ) as edge_span:
                    _multiply_into(index, edge)
                    edge_span.note(family_out=len(index))
            else:
                _multiply_into(index, edge)
        if tracer.enabled:
            run_span.note(family_out=len(index))
        return index.sorted_masks()
