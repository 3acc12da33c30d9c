"""Exception hierarchy for the framework."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class MonotonicityError(ReproError):
    """An interestingness predicate violated monotonicity.

    The paper's framework requires ``q`` to be monotone with respect to
    the specialization relation: if ``q(φ)`` holds and ``φ' ⪯ φ`` then
    ``q(φ')`` holds.  :class:`repro.core.oracle.MonotonicityCheckingOracle`
    raises this when observed answers contradict the requirement (e.g. a
    statistical-significance predicate, which the paper explicitly notes
    is *not* monotone).
    """


class RepresentationError(ReproError):
    """A language is not representable as sets (Definition 6).

    Raised when a representation ``f : L → P(R)`` cannot be one-to-one
    *and* surjective *and* order-isomorphic — e.g. for the episode
    language of [21], whose lattice is not a powerset.
    """


class BudgetExhausted(ReproError):
    """A cooperative :class:`repro.runtime.budget.Budget` limit was hit.

    The miners catch this internally and *return* a
    :class:`~repro.runtime.partial.PartialResult`; the transversal
    engines raise it with :attr:`partial` (a
    :class:`~repro.runtime.partial.PartialDualization`) attached so the
    caller still receives the certified state.

    Attributes:
        reason: which limit tripped — ``"queries"``, ``"timeout"``,
            ``"family"``, or ``"interrupt"`` (a ``KeyboardInterrupt``
            absorbed at a checkpoint).
        partial: the certified partial state assembled by the engine, or
            ``None`` when the exception was raised below the engine
            layer (e.g. deep inside a dualization recursion).
    """

    def __init__(self, reason: str, message: str = "", partial=None):
        super().__init__(message or f"budget exhausted ({reason})")
        self.reason = reason
        self.partial = partial


class CheckpointError(ReproError):
    """A checkpoint could not be loaded or does not match the run.

    Raised on version/algorithm mismatches, universes that differ from
    the checkpointed one, and malformed checkpoint files.
    """


class WALError(CheckpointError):
    """A write-ahead log is corrupt beyond crash-artifact tolerance.

    A torn *final* record is a normal ``SIGKILL`` artifact and is
    silently truncated on recovery; a bad record with valid records
    after it means the log was damaged at rest, which recovery refuses
    to paper over.
    """
