"""Algorithm 9: the levelwise algorithm.

The algorithm walks the lattice bottom-up, alternating candidate
generation (a pure lattice computation, no data access) with evaluation
(one ``Is-interesting`` query per new candidate).  Candidates at level
``i+1`` are exactly ``Bd-(∪_{j≤i} L_j) \\ ∪_{j≤i} C_j`` — sentences all
of whose immediate generalizations proved interesting.

Theorem 10: the algorithm is correct and evaluates ``q`` exactly
``|Th ∪ Bd-(Th)|`` times; the returned :class:`~repro.core.theory.Theory`
exposes everything needed to assert that equality, which experiment E2
does.

Convention: the subset-lattice version queries the empty set first (level
0).  If ``∅`` itself is uninteresting the theory is empty and the
negative border is ``{∅}`` — one query total, still matching Theorem 10.

Execution control: the run goes through :class:`~repro.runtime.run.Run`,
like every budgeted miner.  ``budget=`` bounds distinct queries,
wall-clock time, and live level size via cooperative checks between
evaluation chunks; on exhaustion (or ``KeyboardInterrupt``) the run
yields a certified :class:`~repro.runtime.partial.PartialResult`
carrying a resumable JSON :class:`~repro.runtime.checkpoint.Checkpoint`
of the level walk: the levels done are the ``interesting`` and
``negative`` lists by rank, so the state keeps only those and the level
in flight.  ``resume=`` continues such a checkpoint and produces a
theory and query accounting bit-identical to an uninterrupted run (the
saved oracle transcript is primed into the memo, so nothing is
re-evaluated).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

from repro.core.errors import BudgetExhausted
from repro.core.language import GenericLanguage, SetLanguage
from repro.core.oracle import GenericCountingOracle
from repro.core.theory import Theory
from repro.obs.tracer import Tracer
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult
from repro.runtime.run import Run
from repro.util.antichain import maximize_masks
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.prefix import prefix_join_candidates

#: Chunk size for deadline-only budgets: small enough that a wall-clock
#: check happens frequently, large enough to keep batch dispatch cheap.
_DEADLINE_CHUNK = 256


def levelwise(
    universe: Universe,
    predicate: Callable[[int], bool],
    max_rank: int | None = None,
    budget: Budget | None = None,
    resume: "Checkpoint | str | None" = None,
    tracer: "Tracer | None" = None,
) -> "Theory | PartialResult":
    """Run Algorithm 9 on the subset lattice over ``universe``.

    Args:
        universe: the attribute universe ``R``.
        predicate: the monotone interestingness predicate ``q`` on masks;
            a :class:`~repro.core.oracle.CountingOracle` is accepted and
            reused, anything else is wrapped in one.
        max_rank: optional level cutoff (useful for bounded-size mining);
            when hit, the reported theory/borders are those of the
            truncated lattice.
        budget: optional cooperative :class:`~repro.runtime.budget.Budget`;
            checked between evaluation chunks.  Candidate levels are
            evaluated in chunks no larger than the remaining query
            allowance, so the distinct-query limit is never overshot;
            chunked batches charge the oracle identically to one
            whole-level batch (Theorem 10 accounting is unchanged).
        resume: a :class:`~repro.runtime.checkpoint.Checkpoint` (or a
            path to one) produced by an earlier budgeted run.  The saved
            transcript is primed into the oracle memo and the walk
            continues at the exact probe boundary; theory and query
            accounting match an uninterrupted run bit-for-bit.
        tracer: optional :class:`~repro.obs.tracer.Tracer`.  Emits a
            ``levelwise.run`` span, one ``levelwise.level`` span per
            lattice level (opened with ``candidates = |C_l|``, closed
            with the interesting/rejected split), one
            ``levelwise.generate`` span per candidate-generation step
            (its wall clock is the per-level join column of
            ``benchmarks/trace_report.py``), per-query events from
            the oracle underneath, and a terminal ``levelwise.done``
            event carrying the Theorem 10 accounting that the
            :class:`~repro.obs.monitor.TheoremMonitor` certifies.
            Tracing never changes the result or the accounting
            (property-tested).

    Returns:
        A :class:`~repro.core.theory.Theory` (``queries`` counts
        distinct evaluations, which Theorem 10 pins to
        ``|Th| + |Bd-(Th)|``; ``levels`` are the levels walked), or a
        :class:`~repro.runtime.partial.PartialResult` when the budget
        ran out first.
    """
    run = Run(
        "levelwise",
        universe,
        predicate,
        budget=budget,
        tracer=tracer,
        resume=resume,
        settings={"max_rank": max_rank},
    )
    oracle = run.oracle
    tracer = run.tracer
    n = len(universe)
    state = run.state
    if state is None:
        state = {
            "max_rank": max_rank,
            "level_rank": 0,
            "interesting": [],
            "negative": [],
            "current_candidates": [0],
            "position": 0,
            "current_level_interesting": [],
        }
    max_rank = state["max_rank"]
    level_rank = state["level_rank"]
    interesting_all = list(state["interesting"])
    negative_border = list(state["negative"])
    current_candidates = list(state["current_candidates"])
    position = state["position"]
    current_level_interesting = list(state["current_level_interesting"])

    with tracer.span(
        "levelwise.run", n=n, resumed=resume is not None
    ) as run_span:
        try:
            while current_candidates:
                with tracer.span(
                    "levelwise.level",
                    rank=level_rank,
                    candidates=len(current_candidates),
                ) as level_span:
                    while position < len(current_candidates):
                        run.check(family=len(current_candidates))
                        # Chunked whole-level evaluation: accounting is
                        # identical to asking the oracle per candidate
                        # (Theorem 10 query counts unchanged), but a
                        # batch-capable predicate resolves each chunk in
                        # one dispatch.  The chunk never exceeds the
                        # remaining query allowance, so a budgeted run
                        # stops exactly at its limit.
                        chunk_size = len(current_candidates) - position
                        if budget is not None:
                            allowance = budget.query_allowance(run.queries)
                            if allowance is not None:
                                chunk_size = min(chunk_size, allowance)
                            if budget.timeout is not None:
                                chunk_size = min(chunk_size, _DEADLINE_CHUNK)
                        chunk = current_candidates[
                            position : position + chunk_size
                        ]
                        answers = oracle.batch_query(chunk)
                        for candidate, answer in zip(chunk, answers):
                            if answer:
                                current_level_interesting.append(candidate)
                                interesting_all.append(candidate)
                            else:
                                negative_border.append(candidate)
                        position += len(chunk)
                    if tracer.enabled:
                        level_span.note(
                            interesting=len(current_level_interesting),
                            rejected=len(current_candidates)
                            - len(current_level_interesting),
                        )
                level_rank += 1
                if max_rank is not None and level_rank > max_rank:
                    break
                with tracer.span(
                    "levelwise.generate", rank=level_rank
                ) as gen_span:
                    next_candidates = _generate_candidates(
                        current_level_interesting, set(interesting_all), n
                    )
                    if tracer.enabled:
                        gen_span.note(candidates=len(next_candidates))
                current_candidates = next_candidates
                position = 0
                current_level_interesting = []
                if budget is not None and next_candidates:
                    budget.check(family=len(next_candidates))
        except (BudgetExhausted, KeyboardInterrupt) as stop:
            return run.cut(
                stop,
                run_span,
                interesting=interesting_all,
                negative_candidates=negative_border,
                frontier=current_candidates[position:]
                + _generate_candidates(
                    current_level_interesting, set(interesting_all), n
                ),
                state={
                    "max_rank": max_rank,
                    "level_rank": level_rank,
                    "interesting": interesting_all,
                    "negative": negative_border,
                    "current_candidates": current_candidates,
                    "position": position,
                    "current_level_interesting": current_level_interesting,
                },
            )

        maximal = maximize_masks(interesting_all)
        queries = run.queries
        if tracer.enabled:
            rank = max((popcount(m) for m in maximal), default=0)
            run_span.note(outcome="complete", queries=queries)
            tracer.event(
                "levelwise.done",
                queries=queries,
                theory=len(interesting_all),
                negative=len(negative_border),
                maximal=len(maximal),
                rank=rank,
                n=n,
                base_queries=run.base_queries,
            )
        return Theory(
            universe=universe,
            maximal=tuple(rank_sorted(maximal)),
            negative_border=tuple(rank_sorted(negative_border)),
            interesting=tuple(rank_sorted(interesting_all)),
            queries=queries,
        )


def _generate_candidates(
    level_interesting: list[int], interesting_set: set[int], n: int
) -> list[int]:
    """Step 5 of Algorithm 9 on the subset lattice.

    Each candidate of rank ``i+1`` is produced once, from its two
    largest-item parents (the prefix-bucketed join of
    :func:`~repro.util.prefix.prefix_join_candidates`), then pruned
    unless *all* its immediate generalizations were interesting — i.e.
    it lies on the negative border of what is known so far.  Probing
    ``interesting_set`` (all ranks) equals probing the level alone: the
    immediate generalizations of a rank-``i+1`` mask have rank ``i``.
    """
    return prefix_join_candidates(level_interesting, n, interesting_set)


@dataclass(frozen=True)
class GenericLevelwiseResult:
    """Output of the generic-language levelwise run.

    Sentences are the language's own hashable objects; maximality is
    computed with the language's order, so this works for lattices that
    are *not* representable as sets (episodes).
    """

    interesting: tuple[Hashable, ...]
    maximal: tuple[Hashable, ...]
    negative_border: tuple[Hashable, ...]
    queries: int
    levels: tuple[tuple[Hashable, ...], ...] = field(default=(), compare=False)


def levelwise_generic(
    language: GenericLanguage,
    predicate: Callable[[Hashable], bool],
    max_rank: int | None = None,
) -> GenericLevelwiseResult:
    """Algorithm 9 over an arbitrary graded language.

    Candidate generation uses ``language.specializations`` to propose and
    ``language.generalizations`` to prune, exactly mirroring the
    negative-border formulation of Step 5.  For a
    :class:`~repro.core.language.SetLanguage` prefer :func:`levelwise`,
    which is equivalent but much faster.
    """
    oracle = (
        predicate
        if isinstance(predicate, GenericCountingOracle)
        else GenericCountingOracle(predicate)
    )
    start_queries = oracle.distinct_queries

    interesting_all: list[Hashable] = []
    interesting_set: set[Hashable] = set()
    negative_border: list[Hashable] = []
    levels: list[tuple[Hashable, ...]] = []
    evaluated: set[Hashable] = set()

    current_candidates = list(dict.fromkeys(language.minimal_sentences()))
    level_rank = 0
    while current_candidates:
        level_interesting: list[Hashable] = []
        for candidate in current_candidates:
            evaluated.add(candidate)
            if oracle(candidate):
                level_interesting.append(candidate)
                interesting_all.append(candidate)
                interesting_set.add(candidate)
            else:
                negative_border.append(candidate)
        levels.append(tuple(level_interesting))
        level_rank += 1
        if max_rank is not None and level_rank > max_rank:
            break
        next_candidates: list[Hashable] = []
        proposed: set[Hashable] = set()
        for sentence in level_interesting:
            for child in language.specializations(sentence):
                if child in proposed or child in evaluated:
                    continue
                proposed.add(child)
                if all(
                    parent in interesting_set
                    for parent in language.generalizations(child)
                ):
                    next_candidates.append(child)
        current_candidates = next_candidates

    maximal = [
        sentence
        for sentence in interesting_all
        if not any(
            child in interesting_set
            for child in language.specializations(sentence)
        )
    ]
    return GenericLevelwiseResult(
        interesting=tuple(interesting_all),
        maximal=tuple(maximal),
        negative_border=tuple(negative_border),
        queries=oracle.distinct_queries - start_queries,
        levels=tuple(levels),
    )


def levelwise_for_language(
    language: SetLanguage,
    predicate: Callable[[int], bool],
    max_rank: int | None = None,
) -> "Theory | PartialResult":
    """Convenience dispatcher: fast path for :class:`SetLanguage`."""
    return levelwise(language.universe, predicate, max_rank=max_rank)
