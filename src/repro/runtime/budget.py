"""Cooperative resource budgets for the mining and dualization engines.

Every engine in this library can blow up exponentially — the paper's
Example 19 border is the canonical case — and a run that exceeds memory
or patience must degrade into a certified partial answer instead of
dying with nothing to show (Theorem 2 / Corollary 4 say exactly what a
prefix of ``Is-interesting`` answers certifies).  A :class:`Budget`
bounds three resources:

* ``max_queries`` — distinct ``Is-interesting`` evaluations, the
  paper's own cost measure;
* ``timeout`` — wall-clock seconds from :meth:`begin`;
* ``max_family`` — the size of the largest *live* antichain or
  candidate family an engine may hold (levelwise levels, Berge
  intermediate transversal families, FK sub-DNFs, discovered ``Bd+``).

Budgets are *cooperative*: engines call :meth:`check` at their own
checkpoints (between oracle probes, between multiplication steps,
per recursion node), so a limit can be overshot by at most one
uninterruptible unit of work — e.g. one greedy maximalization pass.
All engines accept ``budget=None`` (the default), which costs nothing.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.core.errors import BudgetExhausted

__all__ = ["Budget", "BudgetExhausted"]


class Budget:
    """Resource limits checked cooperatively by the engines.

    Args:
        max_queries: distinct oracle evaluations allowed (``None`` for
            unlimited).  Engines check *before* spending, so the count
            never exceeds the limit at a checkpoint boundary.
        timeout: wall-clock seconds allowed, measured from the first
            :meth:`begin` (engines call it on entry; re-entry during a
            resumed run keeps the original zero unless :meth:`restart`
            is used).
        max_family: largest live family/antichain size allowed.
        clock: injectable monotonic clock (tests freeze it).

    One budget instance may be shared across engine calls — e.g. a
    Dualize-and-Advance run passes the same budget to its internal
    Berge/FK dualization steps, so a blow-up deep inside a
    multiplication trips the same limits as the outer probe loop.
    """

    __slots__ = ("max_queries", "timeout", "max_family", "_clock", "_t0")

    def __init__(
        self,
        max_queries: int | None = None,
        timeout: float | None = None,
        max_family: int | None = None,
        clock: Callable[[], float] | None = None,
    ):
        # ``not limit >= bound`` also refuses NaN, which every check
        # would let pass.
        if max_queries is not None and not max_queries >= 0:
            raise ValueError("max_queries must be a non-negative number")
        if timeout is not None and not timeout >= 0:
            raise ValueError("timeout must be a non-negative number")
        if max_family is not None and not max_family >= 1:
            raise ValueError("max_family must be a positive number")
        self.max_queries = max_queries
        self.timeout = timeout
        self.max_family = max_family
        self._clock = clock if clock is not None else time.monotonic
        self._t0: float | None = None

    def begin(self) -> "Budget":
        """Start the wall clock (idempotent); returns ``self``."""
        if self._t0 is None:
            self._t0 = self._clock()
        return self

    def restart(self) -> "Budget":
        """Reset the wall clock to now (a fresh run on the same limits)."""
        self._t0 = self._clock()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`begin` (0.0 before it)."""
        if self._t0 is None:
            return 0.0
        return self._clock() - self._t0

    def query_allowance(self, used: int) -> int | None:
        """How many more distinct queries may be spent (``None`` = ∞)."""
        if self.max_queries is None:
            return None
        return max(0, self.max_queries - used)

    def check(
        self, *, queries: int | None = None, family: int | None = None
    ) -> None:
        """Raise :class:`BudgetExhausted` when a supplied measure is over.

        Args:
            queries: distinct queries already charged to this run; the
                check fails when no allowance remains (``used >= max``),
                i.e. engines call it *before* the next probe.
            family: current live family size; fails when strictly above
                ``max_family`` (a family exactly at the limit is kept —
                it is the state the partial result reports).
        """
        if (
            self.max_queries is not None
            and queries is not None
            and queries >= self.max_queries
        ):
            raise BudgetExhausted(
                "queries",
                f"query budget exhausted ({queries}/{self.max_queries})",
            )
        if self.timeout is not None and self._t0 is not None:
            elapsed = self._clock() - self._t0
            if elapsed >= self.timeout:
                raise BudgetExhausted(
                    "timeout",
                    f"deadline exceeded ({elapsed:.3f}s/{self.timeout}s)",
                )
        if (
            self.max_family is not None
            and family is not None
            and family > self.max_family
        ):
            raise BudgetExhausted(
                "family",
                f"live family too large ({family} > {self.max_family})",
            )

    def __repr__(self) -> str:
        parts = []
        if self.max_queries is not None:
            parts.append(f"max_queries={self.max_queries}")
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}")
        if self.max_family is not None:
            parts.append(f"max_family={self.max_family}")
        return f"Budget({', '.join(parts) or 'unlimited'})"
