"""Parallel MMCS minimal-hitting-set enumeration.

The MMCS search tree fans out exactly like Eclat's prefix tree, so the
parallel engine uses the same seam: the coordinator walks the tree to
a fixed *split depth*, collecting the depth-limited frontier nodes as
tasks **in serial traversal order** — the task's index is its sequence
number — then runs them through
:meth:`~repro.parallel.pool.WorkerPool.map_in_order`.  Each worker
rebuilds the node's ``crit`` state from its ``(members, cand, uncov)``
snapshot (cheaper to recompute once per subtree than to ship) and
enumerates the subtree with the serial kernel.

Determinism contract, same as every parallel engine here: results fold
strictly in sequence order, the fold order equals the serial discovery
order, and the final family is sorted by (cardinality, value) — so the
output is bit-identical to the serial engine at every worker count and
under every completion order (property-tested).

Budget semantics: the coordinator checks the budget during the prefix
walk (per node) and at every fold (per completed subtree), so one
subtree is the overshoot unit; exhaustion raises
:class:`~repro.core.errors.BudgetExhausted` carrying the FK-style
genuine-prefix :class:`~repro.runtime.partial.PartialDualization` of
everything folded so far.  A pool death past the restart allowance
falls back to completing the remaining sequence numbers serially
(``worker.fallback``), so the parallel path never fails where the
serial one would not.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.errors import BudgetExhausted
from repro.hypergraph.mmcs import (
    _SearchState,
    _enumerate,
    _prepare,
    _rebuild_crit,
    _search,
    _vertex_edge_index,
    _with_prefix_partial,
)
from repro.obs.tracer import as_tracer
from repro.parallel.pool import WorkerPool, WorkerPoolBroken, resolve_workers
from repro.util.bitset import rank_sorted

__all__ = ["mmcs_transversals_parallel", "SPLIT_DEPTH"]

#: Depth of the coordinator's prefix walk.  Two levels of branching on
#: data-profiling-shaped hypergraphs yields tens-to-hundreds of subtree
#: tasks — enough spread for the pool to balance skew, few enough that
#: snapshot shipping stays negligible.  A constant (never derived from
#: the worker count) so the task list, sequence numbers, and therefore
#: every fold-order effect are identical at every worker count.
SPLIT_DEPTH = 2

#: Per-worker state installed by the pool initializer (fork-shared
#: read-only after that): the minimized edge list and vertex index.
_WORKER_STATE: dict = {}


def _init_mmcs_worker(edges: list[int]) -> None:
    # The coordinator ships edges it has already minimized, so the
    # worker only indexes them.
    _WORKER_STATE.clear()
    _WORKER_STATE["edges"] = edges
    _WORKER_STATE["by_vertex"] = _vertex_edge_index(edges)


def _subtree(
    edges: Sequence[int],
    by_vertex: dict[int, int],
    members: tuple[int, ...],
    cand: int,
    uncov: int,
) -> tuple[list[int], int]:
    """Enumerate one frontier subtree; returns (found, nodes)."""
    state = _SearchState(edges, by_vertex, None, as_tracer(None))
    members_list = list(members)
    members_mask = 0
    for vertex in members_list:
        members_mask |= 1 << vertex
    crit = _rebuild_crit(edges, by_vertex, members_list, uncov)
    _search(
        state,
        members_list,
        members_mask,
        cand,
        uncov,
        crit,
        SPLIT_DEPTH,
    )
    return state.found, state.nodes


def _mmcs_task(members: tuple[int, ...], cand: int, uncov: int):
    """Pure task function: payload in, (found, nodes) out."""
    return _subtree(
        _WORKER_STATE["edges"],
        _WORKER_STATE["by_vertex"],
        members,
        cand,
        uncov,
    )


def mmcs_transversals_parallel(
    edge_masks: Sequence[int],
    workers: int | None = None,
    *,
    budget=None,
    tracer=None,
) -> list[int]:
    """Minimal transversals via MMCS with depth-2 subtree tasks.

    Output is identical (same masks, same (cardinality, value) order)
    to :func:`repro.hypergraph.mmcs.mmcs_transversal_masks` at every
    worker count.

    Args:
        edge_masks: the hypergraph's edges (minimized internally).
        workers: pool size; ``None`` or ``<= 1`` runs the serial
            kernel directly.
        budget: optional :class:`~repro.runtime.budget.Budget`; checked
            per prefix node and per folded subtree (the overshoot
            unit).  Exhaustion carries the genuine-prefix partial of
            all subtrees folded so far.
        tracer: optional tracer — the serial ``mmcs.run`` span plus
            ``worker.pool`` / ``worker.fallback`` events;
            ``mmcs.output`` events are emitted at fold points (so their
            order matches the serial engine) and the closing
            ``mmcs.done`` carries the summed node count with
            ``traced=False`` (subtree interiors are not re-traced).
    """
    if resolve_workers(workers) <= 1:
        found, _ = _enumerate(edge_masks, budget, tracer)
        return rank_sorted(found)
    tracer = as_tracer(tracer)
    edges, by_vertex, full_cand = _prepare(edge_masks)
    if by_vertex is None:
        return [0] if not edges else []
    if budget is not None:
        budget.begin()

    with tracer.span("mmcs.run", edges=len(edges)) as run_span:
        # Phase 1: depth-limited prefix walk on the coordinator.  The
        # frontier list is the task list; transversals completed above
        # the split depth land in ``found`` in discovery order.
        state = _SearchState(edges, by_vertex, budget, tracer)
        found = state.found
        frontier: list[tuple[tuple[int, ...], int, int]] = []

        def fold(result) -> None:
            nonlocal nodes
            subtree_found, subtree_nodes = result
            nodes += subtree_nodes
            if budget is not None:
                budget.check(family=len(found))
            found.extend(subtree_found)
            if tracer.enabled:
                for mask in subtree_found:
                    tracer.event("mmcs.output", mask=mask)

        try:
            _search(
                state,
                [],
                0,
                full_cand,
                (1 << len(edges)) - 1,
                [],
                0,
                SPLIT_DEPTH,
                frontier,
            )
            nodes = state.nodes
            with WorkerPool(
                workers,
                initializer=_init_mmcs_worker,
                initargs=(list(edges),),
                tracer=tracer,
            ) as pool:
                folded = 0
                try:
                    for result in pool.map_in_order(_mmcs_task, frontier):
                        fold(result)
                        folded += 1
                except WorkerPoolBroken as error:
                    # Finish the unfolded tail serially; the fold order
                    # (and so the output) is unchanged because
                    # ``folded`` marks exactly the first sequence number
                    # whose result never landed.
                    if tracer.enabled:
                        tracer.event("worker.fallback", reason=str(error))
                    for members, cand, uncov in frontier[folded:]:
                        fold(_subtree(edges, by_vertex, members, cand, uncov))
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
                traced=False,
            )
        return rank_sorted(found)
