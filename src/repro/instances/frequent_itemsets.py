"""Frequent itemsets as a MaxTh instance (the paper's running example).

``L`` is the powerset of the item universe, ``φ ⪯ θ`` is ``φ ⊆ θ``, and
``q(r, X)`` holds when the support of ``X`` in the database reaches the
threshold ``σ``.  The identity map represents the language as sets, so
every algorithm in :mod:`repro.mining` applies directly; this module
wires them together under one entry point with a uniform result type.
"""

from __future__ import annotations

import random

from repro.core.oracle import CountingOracle
from repro.core.theory import Theory
from repro.datasets.transactions import TransactionDatabase
from repro.mining.apriori import apriori
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.eclat import eclat
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult

_ALGORITHMS = (
    "apriori",
    "levelwise",
    "eclat",
    "dualize_advance",
    "maxminer",
)


class FrequencyPredicate:
    """The interestingness predicate ``q(X) = supp(X) ≥ σ``.

    Args:
        database: the 0/1 relation.
        min_support: absolute count (``int``) or relative frequency
            (``float``), converted with ceiling semantics.

    Instances are callables on itemset masks; wrap in a
    :class:`~repro.core.oracle.CountingOracle` to charge queries.
    """

    __slots__ = ("database", "threshold")

    def __init__(
        self, database: TransactionDatabase, min_support: int | float
    ):
        self.database = database
        self.threshold = (
            database.absolute_support(min_support)
            if isinstance(min_support, float)
            else min_support
        )
        if self.threshold < 0:
            raise ValueError("min_support must be non-negative")

    def __call__(self, itemset_mask: int) -> bool:
        return self.database.support_count(itemset_mask) >= self.threshold

    def batch(self, itemset_masks) -> list[bool]:
        """Vectorized form of ``__call__`` over a whole candidate level.

        Recognized by :meth:`CountingOracle.batch_query`, which routes
        every uncached sentence of a level here so the counts come from
        one :meth:`~repro.datasets.transactions.TransactionDatabase.support_counts`
        pass instead of one big-int chain per itemset.
        """
        threshold = self.threshold
        return [
            count >= threshold
            for count in self.database.support_counts(itemset_masks)
        ]

    def __repr__(self) -> str:
        return (
            f"FrequencyPredicate(threshold={self.threshold}, "
            f"database={self.database!r})"
        )


def mine_frequent_itemsets(
    database: TransactionDatabase,
    min_support: int | float,
    algorithm: str = "apriori",
    seed: int | random.Random | None = None,
    engine: str = "berge",
    budget: "Budget | None" = None,
    resume=None,
    tracer=None,
    workers: int | None = None,
) -> "Theory | PartialResult":
    """Mine the maximal frequent itemsets with a chosen algorithm.

    Args:
        database: the transaction database.
        min_support: absolute (int) or relative (float) threshold.
        algorithm: ``"apriori"`` (default), ``"levelwise"`` (generic
            Algorithm 9 on the frequency oracle), ``"eclat"`` (the
            depth-first vertical miner with memoized tidset/diffset
            covers — same theory and borders as levelwise, fastest end
            to end), ``"dualize_advance"`` (Algorithm 16), or
            ``"maxminer"`` (the lookahead maximal-set baseline).
        seed: RNG seed for ``"dualize_advance"``'s shuffled greedy
            advance, the randomized variant of [11].
        engine: transversal engine for ``"dualize_advance"``.  Defaults
            to ``"berge"``, which amortizes best on basket data; pass
            ``"fk"`` for the incremental Corollary 22 engine (the right
            choice when intermediate transversal families blow up,
            cf. Example 19) or ``"mmcs"`` for the MMCS branch-and-bound
            enumerator (docs/API.md §17).
        budget: optional :class:`~repro.runtime.budget.Budget`;
            supported by ``"eclat"``, ``"levelwise"``,
            ``"dualize_advance"`` and ``"maxminer"`` (the algorithms
            with cooperative checkpoints).  ``"apriori"`` rejects it.
        resume: optional :class:`~repro.runtime.checkpoint.Checkpoint`
            (or path/JSON) from an earlier budgeted ``"levelwise"`` or
            ``"dualize_advance"`` run on the same universe.
        tracer: optional :class:`~repro.obs.tracer.Tracer`, forwarded to
            the chosen algorithm (the CLI's ``--trace`` / ``--metrics``
            path; see ``docs/API.md`` §11).
        workers: worker processes (``"eclat"`` only; see
            ``docs/API.md`` §13–14).  ``None`` or ``<= 1`` runs
            serially; larger values fan subtree tasks across pool
            workers over a shared-memory copy of the vertical store,
            with bit-identical results and query accounting.

    Returns:
        A :class:`~repro.core.theory.Theory`, or a
        :class:`~repro.runtime.partial.PartialResult` when a budget ran
        out.  ``queries`` counts distinct support computations; Apriori
        additionally stores the support table under
        ``extra["supports"]``, and Dualize and Advance stores its
        iteration trace under ``extra["iterations"]``.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}"
        )
    if budget is not None and algorithm == "apriori":
        raise ValueError(
            f"algorithm {algorithm!r} does not support budgets; "
            "use eclat, levelwise, dualize_advance or maxminer"
        )
    if resume is not None and algorithm not in ("levelwise", "dualize_advance"):
        raise ValueError(
            f"algorithm {algorithm!r} does not support resume; "
            "use levelwise or dualize_advance"
        )
    if workers is not None and workers > 1 and algorithm != "eclat":
        raise ValueError(
            f"algorithm {algorithm!r} does not support workers; use eclat"
        )
    predicate = FrequencyPredicate(database, min_support)
    universe = database.universe

    if algorithm == "eclat":
        result = eclat(
            database,
            predicate.threshold,
            budget=budget,
            tracer=tracer,
            workers=workers,
        )
        if isinstance(result, PartialResult):
            return result
        return Theory(
            universe=universe,
            maximal=result.maximal,
            negative_border=result.negative_border,
            interesting=result.interesting,
            queries=result.queries,
            extra={
                "supports": result.supports,
                "min_support": result.min_support,
                "nodes": result.nodes,
                "diffset_nodes": result.diffset_nodes,
            },
        )

    if algorithm == "apriori":
        result = apriori(database, predicate.threshold, tracer=tracer)
        return Theory(
            universe=universe,
            maximal=result.maximal,
            negative_border=result.negative_border,
            interesting=tuple(result.frequent_masks()),
            queries=len(result.supports) + len(result.negative_border),
            extra={
                "supports": result.supports,
                "database_passes": result.database_passes,
                "min_support": result.min_support,
            },
        )
    if algorithm == "levelwise":
        oracle = CountingOracle(predicate, name="frequency")
        result = levelwise(
            universe, oracle, budget=budget, resume=resume, tracer=tracer
        )
        if isinstance(result, PartialResult):
            return result
        return Theory(
            universe=universe,
            maximal=result.maximal,
            negative_border=result.negative_border,
            interesting=result.interesting,
            queries=result.queries,
            extra={"levels": result.levels},
        )
    if algorithm == "dualize_advance":
        oracle = CountingOracle(predicate, name="frequency")
        result = dualize_and_advance(
            universe,
            oracle,
            engine=engine,
            shuffle=seed,
            budget=budget,
            resume=resume,
            tracer=tracer,
        )
        if isinstance(result, PartialResult):
            return result
        return Theory(
            universe=universe,
            maximal=result.maximal,
            negative_border=result.negative_border,
            interesting=None,
            queries=result.queries,
            extra={"iterations": result.iterations},
        )
    if algorithm == "maxminer":
        result = maxminer(
            database, predicate.threshold, budget=budget, tracer=tracer
        )
        if isinstance(result, PartialResult):
            return result
        from repro.core.borders import negative_border_from_positive

        negative = negative_border_from_positive(
            universe, list(result.maximal)
        )
        return Theory(
            universe=universe,
            maximal=result.maximal,
            negative_border=tuple(negative),
            interesting=None,
            queries=result.queries,
            extra={
                "nodes_expanded": result.nodes_expanded,
                "lookahead_hits": result.lookahead_hits,
            },
        )
