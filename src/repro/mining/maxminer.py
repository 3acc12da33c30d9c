"""MaxMiner-style lookahead search for maximal frequent itemsets.

A set-enumeration-tree miner in the spirit of Bayardo's MaxMiner (SIGMOD
'98) — the lineage of "maximal itemset miners" that Dualize and Advance
competes with.  Each node carries a *head* itemset and a *tail* of
candidate extensions; the crucial **lookahead** step tests
``head ∪ tail`` in one support query and, if frequent, declares the
whole subtree maximal-covered without expanding it.  On theories with
large maximal sets this prunes the exponential interior that levelwise
would enumerate, while staying a pure ``Is-interesting`` client like
every other algorithm here — so its query counts are directly
comparable in experiment E9.

The implementation is itemset-specialized (it orders tail items by
support) but only requires a support *predicate*, not counts, when used
through :func:`maxminer_maxth`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.errors import BudgetExhausted
from repro.core.theory import Theory
from repro.obs.tracer import Tracer
from repro.datasets.transactions import TransactionDatabase
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.runtime.run import Run
from repro.util.antichain import MaximalFamilyTracker
from repro.util.bitset import Universe, rank_sorted


def maxminer_maxth(
    universe: Universe,
    predicate: Callable[[int], bool],
    tail_order: list[int] | None = None,
    budget: Budget | None = None,
    tracer: "Tracer | None" = None,
) -> "Theory | PartialResult":
    """Find all maximal interesting sets by lookahead tree search.

    Args:
        universe: the attribute universe.
        predicate: the monotone ``q`` (wrapped in a counting oracle
            unless it already is one).
        tail_order: optional item-index order for tail expansion;
            defaults to universe order.  MaxMiner's classic heuristic —
            increasing support — is applied by :func:`maxminer` when a
            database is available.
        budget: optional cooperative
            :class:`~repro.runtime.budget.Budget`, checked once per
            enumeration-tree node (one node — lookahead plus tail split,
            at most ``n + 1`` queries — is the atomic overshoot unit).
            On exhaustion the partial result's frontier holds the
            ``head ∪ tail`` envelopes of the unexpanded subtrees
            (``frontier_kind="upper"``): every undiscovered maximal set
            is a subset of some envelope; an interrupt loses the node
            in flight, so its frontier is marked incomplete.  No
            checkpoint — the search tree is cheap to replay, unlike the
            engines' oracle transcripts.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; emits a
            ``maxminer.run`` span, per-node ``maxminer.node`` events
            (``action`` is ``lookahead`` / ``leaf`` / ``split`` /
            ``dead``), and a ``maxminer.done`` accounting summary.

    Returns:
        A :class:`~repro.core.theory.Theory` whose ``maximal`` agrees
        with every other miner in this library (asserted by the test
        suite), with ``nodes`` the tree nodes expanded; the search
        computes no ``Bd-``, so ``negative_border`` and ``interesting``
        are ``None``.  Or a
        :class:`~repro.runtime.partial.PartialResult` on exhaustion.
    """
    run = Run(
        "maxminer",
        universe,
        predicate,
        budget=budget,
        tracer=tracer,
    )
    oracle = run.oracle
    tracer = run.tracer
    n = len(universe)
    order = list(range(n)) if tail_order is None else list(tail_order)

    # Live Bd+ maintenance: `covered` (the subtree-pruning test) and the
    # final maximal family both come from one incremental tracker instead
    # of a linear scan per node plus a terminal re-maximization.
    found = MaximalFamilyTracker(universe.full_mask)
    stats = {"nodes": 0, "lookaheads": 0}
    covered = found.dominates

    # Explicit DFS stack of (head, tail) nodes.  Children are pushed in
    # reverse so pops follow the recursive preorder exactly — the oracle
    # sees the same query sequence the recursive formulation produced,
    # and on exhaustion the unexpanded subtrees are all on the stack.
    stack: list[tuple[int, list[int]]] = [(0, order)]

    with tracer.span("maxminer.run", n=n) as run_span:
        try:
            run.check()
            if not oracle(0):
                if tracer.enabled:
                    tracer.event(
                        "maxminer.done",
                        queries=run.queries,
                        maximal=0,
                        nodes=0,
                        lookaheads=0,
                    )
                return Theory(
                    universe=universe,
                    maximal=(),
                    negative_border=None,
                    queries=run.queries,
                )
            while stack:
                if budget is not None:
                    run.check(family=len(found))
                head, tail = stack.pop()
                tail_mask = _mask_of(tail)
                # Subtree-domination test, evaluated exactly when the
                # recursion would have entered this child.
                if covered(head | tail_mask):
                    continue
                stats["nodes"] += 1
                # Lookahead: if head ∪ tail is interesting, the whole
                # subtree is dominated by one maximal candidate.
                if tail and oracle(head | tail_mask):
                    stats["lookaheads"] += 1
                    found.add(head | tail_mask)
                    if tracer.enabled:
                        tracer.event(
                            "maxminer.node",
                            head=head,
                            tail=tail_mask,
                            action="lookahead",
                        )
                    continue
                if not tail:
                    found.add(head)
                    if tracer.enabled:
                        tracer.event(
                            "maxminer.node",
                            head=head,
                            tail=0,
                            action="leaf",
                        )
                    continue
                # Split the tail: items whose one-step extension stays
                # interesting continue downward; the rest are dropped here.
                viable = [
                    item_index
                    for item_index in tail
                    if oracle(head | (1 << item_index))
                ]
                if not viable:
                    if not covered(head):
                        found.add(head)
                    if tracer.enabled:
                        tracer.event(
                            "maxminer.node",
                            head=head,
                            tail=tail_mask,
                            action="dead",
                        )
                    continue
                if tracer.enabled:
                    tracer.event(
                        "maxminer.node",
                        head=head,
                        tail=tail_mask,
                        action="split",
                    )
                children = [
                    (head | (1 << item_index), viable[position + 1 :])
                    for position, item_index in enumerate(viable)
                ]
                for child in reversed(children):
                    stack.append(child)
        except (BudgetExhausted, KeyboardInterrupt) as stop:
            return run.cut(
                stop,
                run_span,
                frontier=[head | _mask_of(tail) for head, tail in stack],
                frontier_kind="upper",
                # An interrupt loses the in-flight node, popped from the
                # stack: the envelopes left no longer cover its subtree.
                frontier_complete=isinstance(stop, BudgetExhausted),
            )

        maximal = found.masks()
        queries = run.queries
        if tracer.enabled:
            run_span.note(outcome="complete", queries=queries)
            tracer.event(
                "maxminer.done",
                queries=queries,
                maximal=len(maximal),
                nodes=stats["nodes"],
                lookaheads=stats["lookaheads"],
            )
        return Theory(
            universe=universe,
            maximal=tuple(rank_sorted(maximal)),
            negative_border=None,
            queries=queries,
            nodes=stats["nodes"],
        )


def _mask_of(indices: list[int]) -> int:
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def maxminer(
    database: TransactionDatabase,
    min_support: int | float,
    budget: Budget | None = None,
    tracer: "Tracer | None" = None,
) -> "Theory | PartialResult":
    """MaxMiner on a transaction database with the support-order heuristic.

    Tail items are ordered by increasing support so that likely-failing
    extensions are pruned early and the lookahead union leans on the
    highest-support items — Bayardo's original item-ordering trick.
    """
    threshold = database.absolute_support(min_support)
    supports = database.item_support_counts()
    order = sorted(range(database.n_items), key=lambda i: supports[i])

    def is_frequent(mask: int) -> bool:
        return database.support_count(mask) >= threshold

    return maxminer_maxth(
        database.universe,
        is_frequent,
        tail_order=order,
        budget=budget,
        tracer=tracer,
    )
