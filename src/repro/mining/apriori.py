"""Apriori: the frequent-set specialization of the levelwise algorithm.

This is the [2]-style concrete miner the paper's Section 4 analyzes in
the abstract: level-at-a-time passes, join-based candidate generation
(two frequent ``(k-1)``-sets sharing a ``(k-2)``-prefix), subset pruning,
and vertical-bitmap support counting from
:class:`~repro.datasets.transactions.TransactionDatabase`.

Its query accounting is identical to :func:`repro.mining.levelwise.levelwise`
run on the frequency predicate — the tests assert that — but it also
reports the support of every frequent set, which the association-rule
step (Section 2) consumes, and it counts *database passes*, the quantity
practical Apriori variants optimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.transactions import TransactionDatabase
from repro.obs.tracer import Tracer, as_tracer
from repro.hypergraph.hypergraph import maximize_family
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.prefix import prefix_join_candidates


@dataclass(frozen=True)
class AprioriResult:
    """Output of an Apriori run.

    Attributes:
        universe: the item universe.
        supports: support count of every frequent mask (subset-closed;
            includes the empty set with support = database size).
        maximal: the maximal frequent masks.
        negative_border: evaluated-but-infrequent candidates
            (``Bd-(Th)``).
        min_support: the absolute threshold used.
        database_passes: level count — one counting pass per level.
        candidate_counts: candidates generated per level (level k at
            index k-1).
    """

    universe: Universe
    supports: dict[int, int]
    maximal: tuple[int, ...]
    negative_border: tuple[int, ...]
    min_support: int
    database_passes: int
    candidate_counts: tuple[int, ...] = field(default=(), compare=False)

    def frequent_masks(self) -> list[int]:
        """All frequent masks, smallest first."""
        return rank_sorted(self.supports)

    def n_frequent(self) -> int:
        """``|Th|`` including the empty set."""
        return len(self.supports)

    def largest_frequent_size(self) -> int:
        """``k``: the size of the largest frequent set."""
        if not self.maximal:
            return 0
        return max(popcount(mask) for mask in self.maximal)


def apriori(
    database: TransactionDatabase,
    min_support: int | float,
    max_size: int | None = None,
    tracer: "Tracer | None" = None,
) -> AprioriResult:
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
        An :class:`AprioriResult`.  With the default ``max_size`` the
        frequent family, maximal sets, and negative border coincide with
        a generic levelwise run on the frequency predicate.
    """
    threshold = (
        database.absolute_support(min_support)
        if isinstance(min_support, float)
        else min_support
    )
    if threshold < 0:
        raise ValueError("min_support must be non-negative")
    universe = database.universe
    n = len(universe)
    tracer = as_tracer(tracer)

    supports: dict[int, int] = {}
    negative_border: list[int] = []
    candidate_counts: list[int] = []

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
            return AprioriResult(
                universe=universe,
                supports={},
                maximal=(),
                negative_border=(0,),
                min_support=threshold,
                database_passes=1,
                candidate_counts=(1,),
            )
        supports[0] = empty_support

        # Level 1: all singletons are candidates (their only proper
        # subset, the empty set, is frequent).
        current_frequent: list[int] = []
        candidates = universe.singletons()
        passes = 1  # the empty-set check above reads only the row count
        level = 1
        while candidates:
            candidate_counts.append(len(candidates))
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
        maximal = maximize_family(frequent_nonempty or [0])
        if tracer.enabled:
            run_span.note(passes=passes)
            tracer.event(
                "apriori.done",
                passes=passes,
                frequent=len(supports),
                negative=len(negative_border),
                threshold=threshold,
            )
        return AprioriResult(
            universe=universe,
            supports=supports,
            maximal=tuple(rank_sorted(maximal)),
            negative_border=tuple(rank_sorted(negative_border)),
            min_support=threshold,
            database_passes=passes,
            candidate_counts=tuple(candidate_counts),
        )


