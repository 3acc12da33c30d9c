"""Counting ``Is-interesting`` oracles — the paper's model of computation.

Section 3 assumes "the only way of getting information from the database
is by asking questions of the form *Is the sentence φ interesting?*".
All query-complexity results (Theorems 2, 10, 12, 21; Corollaries 4, 13,
22, 27–29) count these evaluations, so the oracles here are the
measurement instruments of the whole benchmark harness.

A :class:`CountingOracle` memoizes: re-asking the same sentence is free.
That matches the accounting of Algorithm 9, whose candidate step
explicitly excludes sentences evaluated at earlier levels, and of the
lower bounds, which count *distinct* queries.  ``total_calls`` is still
tracked separately so wasteful re-asking is visible.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from repro.obs.tracer import NULL_TRACER

#: The name of an oracle nobody named.  A checkpoint records its
#: oracle's name only when it is another, and a resume checks it only
#: against another (:meth:`repro.runtime.checkpoint.Checkpoint.validate_for`).
UNNAMED = "q"


class CountingOracle:
    """Memoizing, counting wrapper around a mask predicate.

    Args:
        predicate: the raw ``q``, a function of a sentence bitmask.
        name: label used in reprs and reports; a checkpoint records it,
            and a resume under another name is refused.
        memoize: when ``False`` the underlying predicate is re-evaluated
            on repeats (``evaluations`` then exceeds ``distinct_queries``
            whenever an algorithm re-asks).  The paper's cost model
            counts *distinct* sentences, so memoization is the faithful
            default; the flag exists for the ablation benchmark that
            prices re-asking.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; every query
            emits an ``oracle.query`` event (``charged`` marks the
            distinct evaluations the paper's cost model counts) plus
            cache hit/miss counters, and every batch an ``oracle.batch``
            event.  Disabled by default — the cost is then one
            attribute lookup per call.
    """

    __slots__ = ("_predicate", "name", "_cache", "total_calls", "memoize",
                 "evaluations", "_tracer")

    def __init__(
        self,
        predicate: Callable[[int], bool],
        name: str = UNNAMED,
        memoize: bool = True,
        tracer=None,
    ):
        self._predicate = predicate
        self.name = name
        self.memoize = memoize
        self._cache: dict[int, bool] = {}
        self.total_calls = 0
        self.evaluations = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def attach_tracer(self, tracer) -> None:
        """Attach a tracer unless a real one is already wired in.

        Engines call this on oracles the caller handed in, so an
        explicitly configured tracer on the oracle wins over the
        engine-level ``tracer=`` argument.
        """
        if tracer is not None and self._tracer is NULL_TRACER:
            self._tracer = tracer

    def __call__(self, mask: int) -> bool:
        self.total_calls += 1
        cached = self._cache.get(mask)
        charged = cached is None
        if cached is None or not self.memoize:
            self.evaluations += 1
            cached = bool(self._predicate(mask))
            self._cache[mask] = cached
        tracer = self._tracer
        if tracer.enabled:
            tracer.event(
                "oracle.query", mask=mask, answer=cached, charged=charged
            )
            tracer.counter(
                "oracle.cache_miss" if charged else "oracle.cache_hit"
            )
        return cached

    def batch_query(self, masks: Iterable[int]) -> list[bool]:
        """Evaluate a whole level of sentences with one dispatch.

        Accounting is *identical* to calling the oracle on each mask in
        order — same ``total_calls``, ``evaluations``, ``distinct_queries``,
        and cache-insertion order — so every Theorem 10/21 query-count
        assertion is unaffected.  What changes is dispatch: when the
        wrapped predicate exposes a ``batch(masks)`` method (e.g. a
        frequency predicate backed by
        :meth:`~repro.datasets.transactions.TransactionDatabase.support_counts`),
        all uncached sentences of the level are resolved in one call.
        """
        masks = list(masks)
        self.total_calls += len(masks)
        cache = self._cache
        tracer = self._tracer
        if self.memoize:
            fresh: list[int] = []
            pending: set[int] = set()
            for mask in masks:
                if mask not in cache and mask not in pending:
                    fresh.append(mask)
                    pending.add(mask)
            if fresh:
                for mask, answer in zip(fresh, self._evaluate_batch(fresh)):
                    cache[mask] = answer
                self.evaluations += len(fresh)
            if tracer.enabled:
                tracer.event(
                    "oracle.batch", size=len(masks), fresh=len(fresh)
                )
                for mask in fresh:
                    tracer.event(
                        "oracle.query",
                        mask=mask,
                        answer=cache[mask],
                        charged=True,
                    )
                hits = len(masks) - len(fresh)
                if fresh:
                    tracer.counter("oracle.cache_miss", len(fresh))
                if hits:
                    tracer.counter("oracle.cache_hit", hits)
            return [cache[mask] for mask in masks]
        charged_masks = (
            [mask for mask in dict.fromkeys(masks) if mask not in cache]
            if tracer.enabled
            else ()
        )
        answers = self._evaluate_batch(masks)
        self.evaluations += len(masks)
        for mask, answer in zip(masks, answers):
            cache[mask] = answer  # last write wins, as in sequential calls
        if tracer.enabled:
            charged = set(charged_masks)
            tracer.event(
                "oracle.batch", size=len(masks), fresh=len(charged)
            )
            for mask, answer in zip(masks, answers):
                tracer.event(
                    "oracle.query",
                    mask=mask,
                    answer=answer,
                    charged=mask in charged,
                )
                charged.discard(mask)
        return answers

    def _evaluate_batch(self, masks: list[int]) -> list[bool]:
        batch = getattr(self._predicate, "batch", None)
        if callable(batch):
            return [bool(answer) for answer in batch(masks)]
        return [bool(self._predicate(mask)) for mask in masks]

    @property
    def distinct_queries(self) -> int:
        """Number of distinct sentences evaluated — the paper's cost."""
        return len(self._cache)

    def evaluated(self, mask: int) -> bool:
        """True when the sentence has already been charged for."""
        return mask in self._cache

    def history(self) -> dict[int, bool]:
        """A copy of all (sentence, answer) pairs observed so far."""
        return dict(self._cache)

    def prime(self, history: dict[int, bool]) -> None:
        """Preload (sentence, answer) pairs without charging for them.

        The checkpoint/resume machinery replays a saved oracle history
        into a fresh oracle so a resumed engine re-reads old answers
        from the memo instead of re-evaluating the predicate.  Primed
        entries count toward ``distinct_queries`` (they are part of the
        cache), which is why resuming engines snapshot
        ``distinct_queries`` *after* priming and add the checkpoint's
        own accounting on top — total accounting then matches an
        uninterrupted run exactly.
        """
        for mask, answer in history.items():
            self._cache[mask] = bool(answer)

    def reset(self) -> None:
        """Clear counters and memo (a fresh experiment run)."""
        self._cache.clear()
        self.total_calls = 0
        self.evaluations = 0

    def __repr__(self) -> str:
        return (
            f"CountingOracle({self.name}, distinct={self.distinct_queries}, "
            f"total={self.total_calls})"
        )


class GenericCountingOracle:
    """As :class:`CountingOracle`, for hashable sentences of any language."""

    __slots__ = ("_predicate", "name", "_cache", "total_calls")

    def __init__(
        self, predicate: Callable[[Hashable], bool], name: str = "q"
    ):
        self._predicate = predicate
        self.name = name
        self._cache: dict[Hashable, bool] = {}
        self.total_calls = 0

    def __call__(self, sentence: Hashable) -> bool:
        self.total_calls += 1
        cached = self._cache.get(sentence)
        if cached is None:
            cached = bool(self._predicate(sentence))
            self._cache[sentence] = cached
        return cached

    @property
    def distinct_queries(self) -> int:
        """Number of distinct sentences evaluated."""
        return len(self._cache)

    def reset(self) -> None:
        """Clear counters and memo."""
        self._cache.clear()
        self.total_calls = 0

    def __repr__(self) -> str:
        return (
            f"GenericCountingOracle({self.name}, "
            f"distinct={self.distinct_queries}, total={self.total_calls})"
        )


class MonotonicityCheckingOracle:
    """A counting oracle that audits answers for monotonicity violations.

    Every new answer is compared against the full history: an interesting
    set with an uninteresting subset (in the subset-lattice order)
    raises :class:`~repro.core.errors.MonotonicityError`.  Quadratic in
    the number of queries — a test/debug instrument, not a production
    wrapper.
    """

    __slots__ = ("_inner",)

    def __init__(self, predicate: Callable[[int], bool], name: str = "q"):
        self._inner = CountingOracle(predicate, name=name)

    def __call__(self, mask: int) -> bool:
        from repro.core.errors import MonotonicityError

        fresh = not self._inner.evaluated(mask)
        answer = self._inner(mask)
        if fresh:
            for other, other_answer in self._inner.history().items():
                if other == mask:
                    continue
                if other & mask == other and not other_answer and answer:
                    raise MonotonicityError(
                        f"{self._inner.name}: superset {mask:#x} interesting "
                        f"while subset {other:#x} is not"
                    )
                if mask & other == mask and not answer and other_answer:
                    raise MonotonicityError(
                        f"{self._inner.name}: superset {other:#x} interesting "
                        f"while subset {mask:#x} is not"
                    )
        return answer

    @property
    def distinct_queries(self) -> int:
        """Number of distinct sentences evaluated."""
        return self._inner.distinct_queries

    @property
    def total_calls(self) -> int:
        """Total invocations including memo hits."""
        return self._inner.total_calls

    def reset(self) -> None:
        """Clear counters, memo, and audit history."""
        self._inner.reset()

