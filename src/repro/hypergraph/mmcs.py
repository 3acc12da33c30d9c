"""MMCS branch-and-bound minimal-hitting-set enumeration.

Berge multiplication and Fredman–Khachiyan are the paper's own
dualization algorithms, but the engines that survived contact with
data-profiling-scale hypergraphs are the branch-and-bound enumerators
of Murakami & Uno, benchmarked at scale by Bläsius et al.,
"Efficiently Enumerating Hitting Sets of Hypergraphs Arising in Data
Profiling" (arXiv:1805.01310).  This module implements MMCS:
depth-first search over partial hitting sets ``S`` with *incremental*
critical-edge bookkeeping.  ``uncov`` is the set of edges not yet hit,
and ``crit[u]`` the edges hit by ``u`` alone.  Adding a vertex updates
both with one big-int operation per member; a snapshot of ``crit``
taken at the node restores it on backtrack, so a node costs far less
than re-scanning the hypergraph.  A branch is cut the moment some
``u ∈ S`` loses its last critical edge — no extension of that branch
can ever be minimal.

The search enumerates each minimal transversal exactly once: a node
picks an uncovered edge ``e`` minimizing ``|e ∩ cand|``, branches on
those vertices, and removes the whole intersection from ``cand`` before
branching — the vertex ``v`` branch re-admits ``v``'s *earlier*
siblings (sets containing several of them are found under the last one
chosen), while later siblings stay excluded.  Every output is minimal
by construction: ``uncov = ∅`` makes ``S`` a transversal, and every
member holds a critical edge.

The output contract, budget semantics (FK-style: the partial family is
a genuine prefix of ``Tr(H)``), and tracer spans match the other
engines; ``repro.parallel.mmcs`` adds the depth-2 subtree fan-out for
``workers=``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import BudgetExhausted
from repro.hypergraph.hypergraph import minimize_family
from repro.obs.tracer import as_tracer
from repro.util.bitset import iter_bits, popcount, rank_sorted

__all__ = ["mmcs_transversal_masks"]


def _vertex_edge_index(edges: Sequence[int]) -> dict[int, int]:
    """Map vertex index -> bitmask over *edge indices* containing it."""
    index: dict[int, int] = {}
    for position, edge in enumerate(edges):
        bit = 1 << position
        for vertex in iter_bits(edge):
            index[vertex] = index.get(vertex, 0) | bit
    return index


class _SearchState:
    """Shared mutable state of one enumeration run."""

    __slots__ = ("edges", "by_vertex", "found", "nodes", "budget", "tracer")

    def __init__(self, edges, by_vertex, budget, tracer):
        self.edges = edges
        self.by_vertex = by_vertex
        self.found: list[int] = []
        self.nodes = 0
        self.budget = budget
        self.tracer = tracer


def _search(
    state: _SearchState,
    members: list[int],
    members_mask: int,
    cand: int,
    uncov: int,
    crit: list[int],
    depth: int,
    max_depth: int | None = None,
    frontier: list[tuple[tuple[int, ...], int, int]] | None = None,
) -> None:
    """One node: either report ``S``, or branch on an uncovered edge.

    With ``max_depth``, nodes at that depth are not expanded; their
    ``(members, cand, uncov)`` snapshots are appended to ``frontier``
    in traversal order instead — the depth-limited prefix walk the
    parallel driver uses to build its task list.  (``crit`` need not be
    shipped: a subtree rebuilds it from the covered edges, and the
    branch condition below was already enforced on the path down.)
    """
    state.nodes += 1
    if state.budget is not None:
        state.budget.check(family=len(state.found))
    if state.tracer.enabled:
        state.tracer.event(
            "mmcs.node",
            depth=depth,
            uncov=popcount(uncov),
            cand=popcount(cand),
        )
    if uncov == 0:
        state.found.append(members_mask)
        if state.tracer.enabled:
            state.tracer.event("mmcs.output", mask=members_mask)
        return
    if max_depth is not None and depth >= max_depth:
        frontier.append((tuple(members), cand, uncov))
        return
    # The MMCS rule: branch on the uncovered edge minimizing
    # |e ∩ cand|, ties toward the lowest edge index — which keeps the
    # traversal, and so the discovery order, node count and any partial
    # family, deterministic.
    edges = state.edges
    best = 0
    best_size = -1
    rest = uncov
    while rest:
        low = rest & -rest
        position = low.bit_length() - 1
        size = (edges[position] & cand).bit_count()
        if best_size < 0 or size < best_size:
            best, best_size = position, size
            if size == 0:
                break
        rest ^= low
    branch = cand & edges[best]
    if branch == 0:
        return  # dead end: the chosen edge can never be hit
    by_vertex = state.by_vertex
    cand &= ~branch
    # Adding vertex v takes v's edges from every member's criticals; a
    # member left with none cuts the branch (minimality is
    # unrecoverable below it), so the update stops there.  One snapshot
    # restores every member after each branch vertex.
    saved = crit[:]
    rest = branch
    while rest:
        low = rest & -rest
        rest ^= low
        vertex = low.bit_length() - 1
        vertex_edges = by_vertex[vertex]
        keep = ~vertex_edges
        viable = True
        for position in range(len(crit)):
            left = crit[position] & keep
            if not left:
                viable = False
                break
            crit[position] = left
        if viable:
            members.append(vertex)
            crit.append(uncov & vertex_edges)
            _search(
                state,
                members,
                members_mask | low,
                cand,
                uncov & keep,
                crit,
                depth + 1,
                max_depth,
                frontier,
            )
            members.pop()
            crit.pop()
        crit[:] = saved
        # Re-admit v for its *later* siblings: sets containing several
        # branch vertices are enumerated under the last one chosen.
        cand |= low


def _prepare(edge_masks: Sequence[int]):
    """Minimize and index; ``None`` payload signals a degenerate case."""
    edges = minimize_family(edge_masks)
    if not edges:
        return edges, None, None
    if edges[0] == 0:
        return edges, None, None
    full_cand = 0
    for edge in edges:
        full_cand |= edge
    return edges, _vertex_edge_index(edges), full_cand


def _rebuild_crit(
    edges: Sequence[int],
    by_vertex: dict[int, int],
    members: Sequence[int],
    uncov: int,
) -> list[int]:
    """Criticals of ``members`` w.r.t. the covered edges (subtree entry)."""
    members_mask = 0
    for vertex in members:
        members_mask |= 1 << vertex
    covered = ((1 << len(edges)) - 1) & ~uncov
    crit = []
    for vertex in members:
        private = 0
        for position in iter_bits(covered & by_vertex[vertex]):
            if edges[position] & members_mask == 1 << vertex:
                private |= 1 << position
        crit.append(private)
    return crit


def _with_prefix_partial(
    exhausted: BudgetExhausted, found: Sequence[int], edges: Sequence[int]
) -> BudgetExhausted:
    """``exhausted`` again, carrying the genuine-prefix partial family.

    FK-style semantics: every member of ``found`` is a true minimal
    transversal of the *full* edge family (all ``edges`` processed, none
    remaining); the enumeration is merely incomplete.
    """
    from repro.runtime.partial import PartialDualization

    return BudgetExhausted(
        exhausted.reason,
        str(exhausted),
        partial=PartialDualization(
            reason=exhausted.reason,
            family=tuple(rank_sorted(found)),
            processed_edges=tuple(edges),
            remaining_edges=(),
        ),
    )


def _enumerate(
    edge_masks: Sequence[int],
    budget,
    tracer,
):
    """The serial search; returns ``(found, nodes)``.

    Raises:
        BudgetExhausted: with the genuine-prefix
            :class:`~repro.runtime.partial.PartialDualization` attached
            (:func:`_with_prefix_partial`).
    """
    tracer = as_tracer(tracer)
    edges, by_vertex, full_cand = _prepare(edge_masks)
    if by_vertex is None:
        degenerate = [0] if not edges else []
        return degenerate, 0
    if budget is not None:
        budget.begin()
    state = _SearchState(edges, by_vertex, budget, tracer)
    uncov_all = (1 << len(edges)) - 1
    with tracer.span("mmcs.run", edges=len(edges)) as run_span:
        try:
            _search(
                state,
                [],
                0,
                full_cand,
                uncov_all,
                [],
                0,
            )
        except BudgetExhausted as exhausted:
            if tracer.enabled:
                run_span.note(outcome="partial", reason=exhausted.reason)
            raise _with_prefix_partial(
                exhausted, state.found, edges
            ) from exhausted
        if tracer.enabled:
            run_span.note(family_out=len(state.found), nodes=state.nodes)
            tracer.event(
                "mmcs.done",
                family=len(state.found),
                nodes=state.nodes,
                edges=len(edges),
                n=full_cand.bit_length(),
                traced=True,
            )
    return state.found, state.nodes


def mmcs_transversal_masks(
    edge_masks: Sequence[int], budget=None, tracer=None
) -> list[int]:
    """Minimal transversals via the MMCS branch-and-bound enumerator.

    Args:
        edge_masks: the edges; minimized internally (which does not
            change the transversals).
        budget: optional :class:`~repro.runtime.budget.Budget`, checked
            at every search node (wall clock and discovered-family
            size) — the finest checkpoint granularity of any engine
            here, so a cut overshoots by at most one node.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; an
            ``mmcs.run`` span wraps the search, each node emits
            ``mmcs.node`` (depth, ``|uncov|``, ``|cand|``), each
            discovery emits ``mmcs.output``, and the closing
            ``mmcs.done`` summary is what the
            :class:`~repro.obs.monitor.TheoremMonitor` certifies
            (antichain outputs, node/output accounting).

    Returns:
        The minimal transversal masks sorted by (cardinality, value) —
        the same contract as every other engine: ``[0]`` for the empty
        family, ``[]`` when some edge is empty.

    Raises:
        BudgetExhausted: carrying a
            :class:`~repro.runtime.partial.PartialDualization` whose
            ``family`` is a genuine prefix of ``Tr(H)`` (every member
            is a true minimal transversal of the full family).
    """
    found, _ = _enumerate(edge_masks, budget, tracer)
    return rank_sorted(found)

