"""Execution-control runtime: budgets, certified partial results,
checkpoint/resume, and oracle resilience.

The engines of this library are exact but worst-case exponential
(Example 19 of the paper); this package makes runs *degrade gracefully*
instead of falling over:

* :class:`~repro.runtime.budget.Budget` — cooperative limits on
  distinct oracle queries, wall-clock time, and live family size,
  threaded through levelwise, Dualize and Advance, MaxMiner, Berge
  multiplication, and the Fredman–Khachiyan recursion;
* :class:`~repro.runtime.partial.PartialResult` — the certified bracket
  an exhausted (or interrupted) run still proves, with a
  :meth:`~repro.runtime.partial.PartialResult.certificate` that
  re-validates it under Theorem 2 / Corollary 4 semantics;
* :class:`~repro.runtime.checkpoint.Checkpoint` — JSON snapshots for
  ``levelwise`` and ``dualize_and_advance``; resuming reproduces the
  uninterrupted theory and query accounting bit-for-bit;
* :class:`~repro.runtime.resilient.ResilientOracle` — bounded retries,
  deterministic backoff, and k-of-n majority voting over
  stochastically-failing predicates (see
  :class:`~repro.core.oracle.FailingOracle` for the matching fault
  injector).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.runtime.budget": ("Budget",),
    "repro.core.errors": ("BudgetExhausted", "CheckpointError"),
    "repro.runtime.checkpoint": ("CHECKPOINT_VERSION", "Checkpoint"),
    "repro.runtime.partial": (
        "Certificate",
        "PartialDualization",
        "PartialResult",
        "build_partial",
    ),
    "repro.core.oracle": ("FailingOracle",),
    "repro.runtime.resilient": ("ResilientOracle",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
