"""Execution-control runtime: budgets, certified partial results, and
checkpoint/resume.

The engines of this library are exact but worst-case exponential
(Example 19 of the paper); this package makes runs *degrade gracefully*
instead of falling over:

* :class:`~repro.runtime.budget.Budget` — cooperative limits on
  distinct oracle queries, wall-clock time, and live family size,
  threaded through levelwise, Dualize and Advance, MaxMiner, Eclat,
  Berge multiplication, and the Fredman–Khachiyan recursion;
* :class:`~repro.runtime.run.Run` — the one run-control path of every
  budgeted miner: oracle wrap, resume, budget clock and check, and the
  cut that returns or raises the certified partial (not exported; the
  engines construct it);
* :class:`~repro.runtime.partial.PartialResult` — the certified bracket
  an exhausted (or interrupted) run still proves, with a
  :meth:`~repro.runtime.partial.PartialResult.certificate` that
  re-validates it under Theorem 2 / Corollary 4 semantics;
* :class:`~repro.runtime.checkpoint.Checkpoint` — JSON snapshots for
  ``levelwise`` and ``dualize_and_advance``; resuming reproduces the
  uninterrupted theory and query accounting bit-for-bit.
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
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
