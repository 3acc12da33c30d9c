"""MMCS branch-and-bound minimal-hitting-set enumeration.

Berge multiplication and Fredman–Khachiyan are the paper's own
dualization algorithms, but the engines that survived contact with
data-profiling-scale hypergraphs are the branch-and-bound enumerators
of Murakami & Uno, benchmarked at scale by Bläsius et al.,
"Efficiently Enumerating Hitting Sets of Hypergraphs Arising in Data
Profiling" (arXiv:1805.01310).  This module implements MMCS:
depth-first search over partial hitting sets ``S`` with *incremental*
critical-edge bookkeeping.  ``uncov`` is the set of edges not yet hit,
and ``crit[u]`` the edges hit by ``u`` alone.  Adding a vertex ``v``
updates both with one big-int AND per member against ``keep[v]``, the
edges missing ``v`` (one positive mask per vertex, derived from the
item→edge :class:`~repro.util.antichain.DominanceIndex` that also
minimizes the input), into a fresh list for the child, so a node costs
far less than re-scanning the hypergraph and nothing is restored on
backtrack.  A branch is cut the moment some ``u ∈ S`` loses its last
critical edge — no extension of that branch can ever be minimal.

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

from collections.abc import Iterable, Sequence

from repro.core.errors import BudgetExhausted
from repro.obs.tracer import as_tracer
from repro.util.antichain import DominanceIndex
from repro.util.bitset import popcount, rank_sorted

__all__ = ["mmcs_transversal_masks"]


class _SearchState:
    """Shared mutable state of one enumeration run."""

    __slots__ = ("edges", "keep", "found", "nodes", "budget", "tracer")

    def __init__(self, edges, keep, budget, tracer):
        self.edges = edges
        self.keep = keep
        self.found: list[int] = []
        self.nodes = 0
        self.budget = budget
        self.tracer = tracer


def _search(
    state: _SearchState,
    members: int,
    cand: int,
    uncov: int,
    crit: list[int],
    depth: int,
    max_depth: int | None = None,
    frontier: list[tuple[int, int, int, list[int]]] | None = None,
) -> None:
    """One node whose ``S`` (``members``) misses some edge: branch.

    A child whose vertex hits every uncovered edge is a transversal.
    The branch loop closes it on the spot, with the node count, budget
    check, ``mmcs.node``/``mmcs.output`` events and discovery order a
    call on it would give, so no call is ever made with ``uncov == 0``.

    With ``max_depth``, nodes at that depth are not expanded; their
    ``(members, cand, uncov, crit)`` snapshots are appended to
    ``frontier`` in traversal order instead — the depth-limited prefix
    walk the parallel driver uses to build its task list.
    """
    state.nodes += 1
    budget = state.budget
    found = state.found
    if budget is not None:
        budget.check(family=len(found))
    tracer = state.tracer
    if tracer.enabled:
        tracer.event(
            "mmcs.node",
            depth=depth,
            uncov=popcount(uncov),
            cand=popcount(cand),
        )
    if max_depth is not None and depth >= max_depth:
        frontier.append((members, cand, uncov, crit))
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
    keep = state.keep
    cand ^= branch
    depth += 1
    # Adding vertex v leaves each member's criticals, and uncov, with
    # only the edges ``keep[v]`` holds (those missing v); a member left
    # with none cuts the branch, since minimality is unrecoverable
    # below it.  Each child gets its own list, so nothing is restored.
    rest = branch
    while rest:
        low = rest & -rest
        rest ^= low
        vertex_keep = keep[low]
        child_crit = []
        for edges_left in crit:
            left = edges_left & vertex_keep
            if not left:
                break
            child_crit.append(left)
        else:
            child_uncov = uncov & vertex_keep
            if child_uncov:
                child_crit.append(uncov ^ child_uncov)
                _search(
                    state,
                    members | low,
                    cand,
                    child_uncov,
                    child_crit,
                    depth,
                    max_depth,
                    frontier,
                )
            else:
                state.nodes += 1
                if budget is not None:
                    budget.check(family=len(found))
                if tracer.enabled:
                    tracer.event(
                        "mmcs.node", depth=depth, uncov=0, cand=popcount(cand)
                    )
                found.append(members | low)
                if tracer.enabled:
                    tracer.event("mmcs.output", mask=members | low)
        # Re-admit v for its *later* siblings: sets containing several
        # branch vertices are enumerated under the last one chosen.
        cand |= low


def _keep_masks(
    edges: Sequence[int], index: DominanceIndex, vertices: int
) -> dict[int, int]:
    """Map each vertex bit of ``vertices`` to the bitmap of the edge
    positions that do *not* contain it."""
    everything = (1 << len(edges)) - 1
    keep: dict[int, int] = {}
    rest = vertices
    while rest:
        low = rest & -rest
        keep[low] = everything ^ index.containing(low)
        rest ^= low
    return keep


def _prepare(edge_masks: Iterable[int]):
    """Minimize and index: ``(edges, keep, vertices)``.

    ``keep`` is ``None`` when the family is empty or holds the empty
    edge.  ``edges`` is :func:`~repro.util.antichain.minimize_masks`'
    list: an edge is dropped when the index finds another edge inside
    it.
    """
    edges = rank_sorted(set(edge_masks))
    if not edges or edges[0] == 0:
        return edges, None, 0
    index = DominanceIndex(edges)
    # Distinct and rank-sorted, so only later positions can contain an
    # edge; an edge already dropped adds nothing its subset did not.
    dropped = 0
    for position, edge in enumerate(edges):
        if not dropped >> position & 1:
            dropped |= index.containing(edge) ^ (1 << position)
    if dropped:
        edges = [
            edge
            for position, edge in enumerate(edges)
            if not dropped >> position & 1
        ]
        index = DominanceIndex(edges)
    vertices = 0
    for edge in edges:
        vertices |= edge
    return edges, _keep_masks(edges, index, vertices), vertices


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
    edges, keep, full_cand = _prepare(edge_masks)
    if keep is None:
        degenerate = [0] if not edges else []
        return degenerate, 0
    if budget is not None:
        budget.begin()
    state = _SearchState(edges, keep, budget, tracer)
    uncov_all = (1 << len(edges)) - 1
    with tracer.span("mmcs.run", edges=len(edges)) as run_span:
        try:
            _search(state, 0, full_cand, uncov_all, [], 0)
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

