"""Apriori: the frequent-set specialization of the levelwise algorithm.

This is the [2]-style concrete miner the paper's Section 4 analyzes in
the abstract: level-at-a-time passes, join-based candidate generation
(two frequent ``(k-1)``-sets sharing a ``(k-2)``-prefix), subset pruning,
and vertical-bitmap support counting from
:class:`~repro.datasets.transactions.TransactionDatabase`.

Its query accounting is identical to :func:`repro.mining.levelwise.levelwise`
run on the frequency predicate — the tests assert that — but it also
reports the support of every frequent set, which the association-rule
step (Section 2) consumes, and of every ``Bd-`` member.  Its *database
passes*, the quantity practical Apriori variants optimize, are the
levels of ``Th ∪ Bd-`` (:attr:`~repro.core.theory.Theory.levels`).
"""

from __future__ import annotations

from repro.core.theory import Theory
from repro.datasets.transactions import TransactionDatabase
from repro.obs.tracer import Tracer, as_tracer
from repro.util.antichain import maximize_masks
from repro.util.bitset import rank_sorted, rank_sorted_with
from repro.util.prefix import prefix_join_candidates


def apriori(
    database: TransactionDatabase,
    min_support: int | float,
    max_size: int | None = None,
    tracer: "Tracer | None" = None,
) -> Theory:
    """Mine all frequent itemsets of a transaction database.

    Args:
        database: the 0/1 relation.
        min_support: absolute row count (``int``) or relative frequency
            in ``(0, 1]`` (``float``), converted with ceiling semantics.
        max_size: optional cap on itemset size.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; emits an
            ``apriori.run`` span, per-pass ``apriori.level`` spans
            (candidate counts), and an ``apriori.done`` summary.  No
            ``oracle.query`` events — Apriori counts supports in batched
            database passes, not through an ``Is-interesting`` oracle.

    Returns:
        A :class:`~repro.core.theory.Theory` with ``supports``,
        ``border_supports`` and ``min_support``; ``queries`` counts the
        evaluated candidates, ``|Th| + |Bd-|`` (Theorem 10).  With the
        default ``max_size`` the theory and both borders coincide with a
        generic levelwise run on the frequency predicate.
    """
    threshold = database.absolute_support(min_support)
    universe = database.universe
    n = len(universe)
    tracer = as_tracer(tracer)

    supports: dict[int, int] = {}
    negative_border: list[int] = []
    border_supports: list[int] = []

    with tracer.span("apriori.run", n=n, threshold=threshold) as run_span:
        empty_support = database.n_transactions
        if empty_support < threshold:
            # Even the empty set is infrequent (threshold exceeds the
            # database size): the theory is empty.
            if tracer.enabled:
                tracer.event(
                    "apriori.done",
                    passes=1,
                    frequent=0,
                    negative=1,
                    threshold=threshold,
                )
            return Theory(
                universe=universe,
                maximal=(),
                negative_border=(0,),
                interesting=(),
                queries=1,
                min_support=threshold,
                supports={},
                border_supports=(empty_support,),
            )
        supports[0] = empty_support

        # Level 1: all singletons are candidates (their only proper
        # subset, the empty set, is frequent).
        current_frequent: list[int] = []
        candidates = universe.singletons()
        passes = 1  # the empty-set check above reads only the row count
        level = 1
        while candidates:
            passes += 1
            with tracer.span(
                "apriori.level", level=level, candidates=len(candidates)
            ) as level_span:
                next_frequent: list[int] = []
                # One database pass counts the whole level: the batched
                # vertical kernel amortizes per-candidate dispatch
                # (bit-identical counts).
                counts = database.support_counts(candidates)
                for candidate, support in zip(candidates, counts):
                    if support >= threshold:
                        supports[candidate] = support
                        next_frequent.append(candidate)
                    else:
                        negative_border.append(candidate)
                        border_supports.append(support)
                if tracer.enabled:
                    level_span.note(
                        frequent=len(next_frequent),
                        rejected=len(candidates) - len(next_frequent),
                    )
            current_frequent = next_frequent
            level += 1
            if max_size is not None and level > max_size:
                break
            # Classic Apriori-gen: two frequent k-sets sharing a
            # (k-1)-prefix join into a (k+1)-set, then every remaining
            # k-subset is probed — the shared prefix-bucketed kernel.
            candidates = prefix_join_candidates(current_frequent, n)

        frequent_nonempty = [mask for mask in supports if mask != 0]
        maximal = maximize_masks(frequent_nonempty or [0])
        if tracer.enabled:
            run_span.note(passes=passes)
            tracer.event(
                "apriori.done",
                passes=passes,
                frequent=len(supports),
                negative=len(negative_border),
                threshold=threshold,
            )
        negative, negative_supports = rank_sorted_with(
            negative_border, border_supports
        )
        return Theory(
            universe=universe,
            maximal=tuple(rank_sorted(maximal)),
            negative_border=negative,
            interesting=tuple(rank_sorted(supports)),
            queries=len(supports) + len(negative),
            min_support=threshold,
            supports=supports,
            border_supports=negative_supports,
        )


