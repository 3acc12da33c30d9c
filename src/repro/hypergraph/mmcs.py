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
item→edge :class:`~repro.util.antichain.DominanceIndex` — the one a
validated :class:`~repro.hypergraph.hypergraph.Hypergraph` keeps, or
the one that minimizes raw input), into a fresh list for the child, so
a node costs far less than re-scanning the hypergraph and nothing is
restored on backtrack.  A branch is cut the moment some ``u ∈ S``
loses its last critical edge — no extension of that branch can ever be
minimal.  The edge choice reads a list of the uncovered edges' masks,
small integers over the vertices, instead of walking the bits of the
edge-wide ``uncov``.

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
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.tracer import as_tracer
from repro.util.antichain import DominanceIndex
from repro.util.bitset import rank_sorted

__all__ = ["mmcs_transversal_masks"]


def _search(
    edges: Sequence[int],
    keep: dict[int, int],
    found: list[int],
    root: tuple,
    budget=None,
    tracer=None,
    max_depth: int | None = None,
    frontier: list | None = None,
) -> int:
    """Enumerate the subtree of one node; returns how many nodes it
    visited.

    ``root`` is the node's ``(members, cand, uncov, uncov_edges, crit,
    depth)``: ``members`` is its ``S``, ``uncov`` the bitmap of the
    uncovered edge positions and ``uncov_edges`` the list of those
    edges' masks in position order — the bitmap serves the set
    algebra, the list the edge choice.  Transversals are appended to
    ``found`` in discovery order.  The recursion is a closure: it reads
    the run's state from closure variables, which cost less per node
    than attribute loads.

    With ``max_depth``, nodes at that depth are not expanded; their
    ``(members, cand, uncov, uncov_edges, crit)`` snapshots are appended
    to ``frontier`` in traversal order instead — the depth-limited
    prefix walk the parallel driver uses to build its task list.
    """
    nodes = 0
    check = budget.check if budget is not None else None
    traced = tracer is not None and tracer.enabled
    event = tracer.event if traced else None
    discover = found.append

    def search(members, cand, uncov, uncov_edges, crit, depth):
        """One node whose ``S`` misses some edge: branch.

        A child whose vertex hits every uncovered edge is a
        transversal.  The branch loop closes it on the spot, with the
        node count, budget check, ``mmcs.node``/``mmcs.output`` events
        and discovery order a call on it would give, so no call is ever
        made with ``uncov == 0``.
        """
        nonlocal nodes
        nodes += 1
        if check is not None:
            check(family=len(found))
        if traced:
            event(
                "mmcs.node",
                depth=depth,
                uncov=len(uncov_edges),
                cand=cand.bit_count(),
            )
        if max_depth is not None and depth >= max_depth:
            frontier.append((members, cand, uncov, uncov_edges, crit))
            return
        # The MMCS rule: branch on the uncovered edge minimizing
        # |e ∩ cand|, ties toward the lowest edge position — which
        # keeps the traversal, and so the discovery order, node count
        # and any partial family, deterministic.
        best = 0
        best_size = cand.bit_count() + 1
        for edge in uncov_edges:
            size = (edge & cand).bit_count()
            if size < best_size:
                best, best_size = edge, size
                if not size:
                    return  # dead end: this edge can never be hit
        branch = cand & best
        cand ^= branch
        depth += 1
        # Adding vertex v leaves each member's criticals, and uncov,
        # with only the edges ``keep[v]`` holds (those missing v); a
        # member left with none cuts the branch, since minimality is
        # unrecoverable below it.  Each child gets its own lists, so
        # nothing is restored.
        rest = branch
        while rest:
            low = rest & -rest
            rest ^= low
            vertex_keep = keep[low]
            child_uncov = uncov & vertex_keep
            if child_uncov:
                child_crit = []
                for edges_left in crit:
                    left = edges_left & vertex_keep
                    if not left:
                        break
                    child_crit.append(left)
                else:
                    child_crit.append(uncov ^ child_uncov)
                    # One edge left is read off its position; more are
                    # filtered from this node's list, in order.
                    if child_uncov & (child_uncov - 1):
                        child_edges = [
                            edge for edge in uncov_edges if not edge & low
                        ]
                    else:
                        child_edges = [edges[child_uncov.bit_length() - 1]]
                    search(
                        members | low,
                        cand,
                        child_uncov,
                        child_edges,
                        child_crit,
                        depth,
                    )
            else:
                # A leaf: S + v is a transversal, minimal iff every
                # member keeps a critical edge.
                for edges_left in crit:
                    if not edges_left & vertex_keep:
                        break
                else:
                    nodes += 1
                    if check is not None:
                        check(family=len(found))
                    if traced:
                        event(
                            "mmcs.node",
                            depth=depth,
                            uncov=0,
                            cand=cand.bit_count(),
                        )
                    discover(members | low)
                    if traced:
                        event("mmcs.output", mask=members | low)
            # Re-admit v for its *later* siblings: sets containing
            # several branch vertices are enumerated under the last one
            # chosen.
            cand |= low

    try:
        search(*root)
    finally:
        # ``search`` reaches itself through its closure: break that
        # cycle, or it keeps ``found`` alive until a full collection.
        search = None
    return nodes


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


def _prepare(edge_masks: Iterable[int] | Hypergraph):
    """Minimize and index: ``(edges, keep, vertices)``.

    ``keep`` is ``None`` when the family is empty or holds the empty
    edge.  A :class:`~repro.hypergraph.hypergraph.Hypergraph` that kept
    its validation index (``edge_index``) is taken as it is: its edges
    are distinct, rank-sorted, non-empty and an antichain, so only the
    keep masks are derived from that index.  Any other input is
    minimized: ``edges`` is :func:`~repro.util.antichain.minimize_masks`'
    list, an edge dropped when the index finds another edge inside it.
    """
    index = None
    if isinstance(edge_masks, Hypergraph):
        index = edge_masks.edge_index
    if index is not None:
        edges = list(edge_masks.edge_masks)
        if not edges:
            return edges, None, 0
    else:
        edges = rank_sorted(set(edge_masks))
        if not edges or edges[0] == 0:
            return edges, None, 0
        index = DominanceIndex(edges)
        # Distinct and rank-sorted, so only later positions can contain
        # an edge; an edge already dropped adds nothing its subset did
        # not.
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


def _enumerate(edge_masks: Sequence[int] | Hypergraph, budget, tracer):
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
    found: list[int] = []
    root = (0, full_cand, (1 << len(edges)) - 1, edges, [], 0)
    with tracer.span("mmcs.run", edges=len(edges)) as run_span:
        try:
            nodes = _search(edges, keep, found, root, budget, tracer)
        except BudgetExhausted as exhausted:
            if tracer.enabled:
                run_span.note(outcome="partial", reason=exhausted.reason)
            raise _with_prefix_partial(exhausted, found, edges) from exhausted
        if tracer.enabled:
            run_span.note(family_out=len(found), nodes=nodes)
            tracer.event(
                "mmcs.done",
                family=len(found),
                nodes=nodes,
                edges=len(edges),
                n=full_cand.bit_length(),
                traced=True,
            )
    return found, nodes


def mmcs_transversal_masks(
    edge_masks: Sequence[int] | Hypergraph, budget=None, tracer=None
) -> list[int]:
    """Minimal transversals via the MMCS branch-and-bound enumerator.

    Args:
        edge_masks: the edges, minimized internally (which does not
            change the transversals); or a simple
            :class:`~repro.hypergraph.hypergraph.Hypergraph`, whose
            kept ``edge_index`` the search reuses instead.
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

