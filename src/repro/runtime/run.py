"""One budgeted engine run: the run-control path every budgeted miner shares.

``levelwise``, ``dualize_and_advance``, ``maxminer_maxth`` and Eclat
(serial and at ``N`` workers) each open a :class:`Run`, check their
budget through it and end a cut through :meth:`Run.cut`; the engine
keeps only its loop state, its frontier and its result.  By Theorem 2
and Corollary 4 a cut run's transcript of ``Is-interesting`` answers
is its certificate, so the run owns the transcript's accounting:

* the predicate's :class:`~repro.core.oracle.CountingOracle` wrap and
  its tracer;
* resume: the checkpoint is coerced and validated against the
  algorithm, the universe, the predicate's name and the engine's
  settings, its transcript is primed into the oracle, its accounting
  becomes the run's base, and its loop state is handed back as
  :attr:`Run.state`;
* ``budget.begin()``, the run clock, the query count and the check;
* the cut: one accounting snapshot builds both the certified
  :class:`~repro.runtime.partial.PartialResult` and its
  :class:`~repro.runtime.checkpoint.Checkpoint`, the run span notes
  the outcome, and the partial is returned.
"""

from __future__ import annotations

import time

from repro.core.errors import BudgetExhausted, CheckpointError
from repro.core.oracle import UNNAMED, CountingOracle
from repro.obs.tracer import as_tracer
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult, build_partial

__all__ = ["Run"]


class Run:
    """The run-control half of one budgeted engine run.

    Args:
        algorithm: the engine's name, as partials and checkpoints
            record it.
        universe: the attribute universe.
        predicate: the monotone ``q``, wrapped in a
            :class:`~repro.core.oracle.CountingOracle` unless it is
            one.  ``None`` for an engine that keeps its own answer
            tables (Eclat), which then overrides :attr:`queries` and
            :meth:`history`.
        budget: optional :class:`~repro.runtime.budget.Budget`; its
            clock starts here.
        tracer: optional :class:`~repro.obs.tracer.Tracer`, attached
            to the oracle.
        resume: a checkpoint, a path to one, or its JSON text.
        settings: the engine configuration the checkpoint must match;
            a setting given as ``None`` takes the checkpoint's value
            (read it back from :attr:`state`).

    Attributes:
        state: the checkpoint's engine loop state on resume, else
            ``None``.
        base_queries: the distinct queries the resumed segments
            charged before this one.
    """

    def __init__(
        self,
        algorithm: str,
        universe,
        predicate=None,
        *,
        budget=None,
        tracer=None,
        resume=None,
        settings: dict | None = None,
    ):
        self.algorithm = algorithm
        self.universe = universe
        self.budget = budget
        self.tracer = as_tracer(tracer)
        oracle = predicate
        if predicate is not None:
            if not isinstance(predicate, CountingOracle):
                oracle = CountingOracle(predicate)
            if self.tracer.enabled:
                oracle.attach_tracer(self.tracer)
        self.oracle = oracle
        self.state: dict | None = None
        base: dict = {}
        if resume is not None:
            checkpoint = Checkpoint.coerce(resume)
            checkpoint.validate_for(algorithm, universe, self._predicate())
            for key, value in (settings or {}).items():
                stored = checkpoint.state.get(key)
                if value is not None and value != stored:
                    raise CheckpointError(
                        f"checkpoint was taken with {key}={stored!r}, "
                        f"cannot resume with {key}={value!r}"
                    )
            oracle.prime(checkpoint.history)
            self.state = checkpoint.state
            base = checkpoint.accounting
        self.base_queries = base.get("queries", 0)
        self._base_calls = base.get("total_calls", 0)
        self._base_evaluations = base.get("evaluations", 0)
        self._base_elapsed = base.get("elapsed", 0.0)
        # Primed entries are in the memo: count from after the priming.
        if oracle is not None:
            self._start = (
                oracle.distinct_queries, oracle.total_calls, oracle.evaluations
            )
        if budget is not None:
            budget.begin()
        self._t0 = time.monotonic()

    def _predicate(self) -> str | None:
        """The oracle's name, or ``None`` when it is unnamed."""
        name = self.oracle.name
        return None if name == UNNAMED else name

    @property
    def queries(self) -> int:
        """Distinct queries charged to the run, resumed segments included."""
        return self.base_queries + self.oracle.distinct_queries - self._start[0]

    def history(self) -> dict[int, bool]:
        """Every (sentence, answer) pair the run knows."""
        return self.oracle.history()

    def check(self, family: int | None = None) -> None:
        """The budget check on the queries charged so far (and ``family``)."""
        if self.budget is not None:
            self.budget.check(queries=self.queries, family=family)

    def accounting(self) -> dict:
        """One snapshot of the run's cumulative accounting.

        ``elapsed`` adds the seconds the resumed segments banked to this
        segment's, so the time a run sat interrupted between segments is
        never billed (docs/API.md §11).
        """
        queries = self.queries
        oracle = self.oracle
        if oracle is None:
            calls = evaluations = queries
        else:
            calls = self._base_calls + oracle.total_calls - self._start[1]
            evaluations = (
                self._base_evaluations + oracle.evaluations - self._start[2]
            )
        return {
            "queries": queries,
            "total_calls": calls,
            "evaluations": evaluations,
            "elapsed": self._base_elapsed + time.monotonic() - self._t0,
        }

    def cut(
        self,
        stop: BaseException,
        run_span,
        *,
        state: dict | None = None,
        **fields,
    ) -> PartialResult:
        """End a cut run: return the certified partial.

        Args:
            stop: the :class:`~repro.core.errors.BudgetExhausted` or
                ``KeyboardInterrupt`` that cut the run.
            run_span: the engine's run span; notes the outcome.
            state: the engine's loop state, for a resumable
                :class:`~repro.runtime.checkpoint.Checkpoint` (``None``
                for the engines that do not resume).
            **fields: the engine's bracket pieces for
                :func:`~repro.runtime.partial.build_partial`
                (``frontier``, ``interesting``, ...).
        """
        reason = (
            stop.reason if isinstance(stop, BudgetExhausted) else "interrupt"
        )
        accounting = self.accounting()
        history = self.history()
        checkpoint = None
        if state is not None:
            checkpoint = Checkpoint(
                algorithm=self.algorithm,
                universe_items=tuple(self.universe.items),
                state=state,
                history=history,
                accounting=accounting,
                predicate=self._predicate(),
            )
        partial = build_partial(
            self.universe,
            self.algorithm,
            reason,
            history,
            checkpoint=checkpoint,
            **accounting,
            **fields,
        )
        if self.tracer.enabled:
            run_span.note(outcome="partial", reason=reason)
        return partial
