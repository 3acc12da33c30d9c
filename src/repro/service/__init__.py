"""Crash-safe long-lived mining service.

The paper's Theorem 2 / Corollary 4 say the borders ``Bd+ ∪ Bd-`` are
exactly the information verification needs, so a long-lived server can
*certify and repair* its theory incrementally from the previous borders
instead of remining from scratch on every change.  This package is the
robustness substrate that makes such a server trustworthy:

* :mod:`repro.service.wal` — a CRC-guarded, fsync'd write-ahead log:
  every mutation is durable *before* it is applied, a ``SIGKILL`` at any
  instant recovers to a state bit-identical to a clean run, and the log
  periodically compacts into the existing
  :class:`~repro.runtime.checkpoint.Checkpoint` format.
* :mod:`repro.service.incremental` — border-delta maintenance: on
  append or threshold change the old ``Bd+``/``Bd-`` is repaired with a
  Theorem 2 / Corollary 4 delta pass (property-tested bit-identical to
  from-scratch mining), falling back to a full remine when the repair
  budget trips.
* :mod:`repro.service.state` — :class:`~repro.service.state.ServiceCore`,
  the transport-agnostic durable state machine (WAL-first apply,
  idempotent operation ids, recovery, compaction).
* :mod:`repro.service.admission` — graceful degradation: per-request
  deadlines on the shared :class:`~repro.runtime.budget.Budget`, a
  bounded admission queue with 503 + ``Retry-After`` load shedding.
* :mod:`repro.service.server` — the zero-dependency HTTP front end
  (stdlib ``http.server`` + threads): ``/mine``, ``/borders``,
  ``/member``, ``/append``, ``/threshold``, ``/health``, ``/metrics``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.service.admission": ("AdmissionController", "Saturated"),
    "repro.service.incremental": (
        "MaintainedTheory",
        "RepairStats",
        "append_database",
        "apply_append",
        "apply_threshold",
        "mine_initial",
    ),
    "repro.service.server": ("MiningServer",),
    "repro.service.state": ("ServiceCore",),
    "repro.service.wal": ("WALError", "WriteAheadLog"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
