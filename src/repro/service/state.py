"""The durable, transport-agnostic core of the mining service.

:class:`ServiceCore` owns the maintained theory and the crash-safety
protocol; the HTTP layer (:mod:`repro.service.server`) is a thin
translation on top.  The protocol, in order, for every mutation:

1. **Dedupe** — mutations carry an operation id; an id that was already
   applied (in the snapshot's ledger or the replayed WAL) is answered
   from the ledger without logging or applying anything.  Clients (and
   the chaos harness) may therefore re-send every batch after a crash
   and converge on the exact state of an uninterrupted run.
2. **Validate** — the operation is checked (rows inside the universe,
   threshold resolvable and non-negative) *before* it is logged: a WAL
   record is replayed unconditionally on recovery, so a record that
   cannot apply would poison the log and make every restart fail.
3. **Log** — the operation is fsync'd to the
   :class:`~repro.service.wal.WriteAheadLog` *before* any state change.
4. **Apply** — the pure functions of :mod:`repro.service.incremental`
   produce a new immutable :class:`~repro.service.incremental.MaintainedTheory`
   and the reference is swapped under the core's lock (readers never
   lock; they grab the current reference and get a consistent state).
5. **Compact** — every ``compact_every`` records the state is folded
   into a :class:`~repro.runtime.checkpoint.Checkpoint`
   (``algorithm="service"``, written atomically + durably) and the WAL
   restarts empty.

Recovery inverts the protocol: load the snapshot (if any), rebuild the
theory *bit-for-bit from the stored closure* (no remining — the stored
``queries`` accounting stays honest; only the ``Bd-`` supports, which
the snapshot does not hold, are recounted from its rows, where a mine
takes them from Eclat's own counts), then replay WAL records newer
than the snapshot through the method a live write applies by
(``ServiceCore._apply``).  Because every apply is deterministic, the
recovered state — theory, borders, supports *and* accounting — is
identical to a run that never crashed; the chaos suite asserts this via
:meth:`ServiceCore.digest` at randomized kill points.

Beside the state the core keeps one
:class:`~repro.service.table.SupportTable`: ``Th ∪ Bd-`` of its last
complete cold mine that held at most ``_TABLE_CAP`` times the state's
members, which answers later cold mines and threshold lowers at or
above its floor.  It is a cache — outside the state, the digest,
the snapshot and the WAL, charged nothing, empty after a restart — and
a move it serves yields the state the closure would, so recovery needs
no table.  It is the only table kept: a state holds none, and every
other repair or ``/mine`` above the maintained threshold reads one
built from the state for that call.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Any, NamedTuple

from repro.core.errors import CheckpointError, WALError
from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.obs.tracer import as_tracer
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult
from repro.service.encoding import compact, object_pieces
from repro.service.incremental import (
    MaintainedTheory,
    RepairStats,
    apply_append,
    apply_threshold,
    mine_initial,
)
from repro.service.table import SupportTable
from repro.service.wal import WriteAheadLog
from repro.util.bitset import Universe, popcount

__all__ = ["Published", "ServiceCore"]

SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.jsonl"

# Backend names older snapshots may carry.  All of them held big-int
# columns with counts identical to "auto", so they load as "auto".
_RETIRED_BACKENDS = frozenset({"numpy", "int", "tidset", "diffset"})

# A complete cold mine's table is kept only when it holds at most this
# many times the state's |Th ∪ Bd-| members, so one low cold mine
# cannot leave a table many times the state's size resident.
_TABLE_CAP = 16


class Published(NamedTuple):
    """The current state and the sequence number of the operation that
    made it, published as one reference so a reader never pairs one
    state with another's ``seq``."""

    state: MaintainedTheory
    seq: int


def _state_payload(
    state: MaintainedTheory,
    seq: int,
    ledger: dict,
    rows: bytearray | None = None,
) -> dict:
    """The canonical description of the full service state.

    Without ``rows``, every value is JSON-ready: the snapshot's payload.
    With ``rows`` — the database's rows already encoded as a JSON
    array — the rows and the families are compact JSON fragments
    (:meth:`~repro.service.incremental.MaintainedTheory.encoded`), for
    :meth:`ServiceCore.digest` to hash with
    :func:`~repro.service.encoding.object_pieces`.
    """
    if rows is None:
        rows = state.database._masks_view()  # json.dumps copies nothing
        supports = [[mask, supp] for mask, supp in state.supports.items()]
        maximal, negative = list(state.maximal), list(state.negative)
    else:
        supports, maximal, negative = state.encoded()
    return {
        "seq": seq,
        "rows": rows,
        "backend": state.database.backend,
        "threshold": state.threshold,
        "supports": supports,
        "maximal": maximal,
        "negative": negative,
        "queries": state.queries,
        "support_updates": state.support_updates,
        "repairs": state.repairs,
        "remines": state.remines,
        "ledger": sorted(ledger.items()),
    }


class ServiceCore:
    """Durable maintained-theory state machine (see module docs).

    Args:
        database: the initial transaction database — the state of
            *sequence zero*.  When a snapshot or WAL exists in
            ``state_dir``, recovery replays on top of this same seed, so
            restarts must pass the same initial data (the universe is
            validated; a mismatch raises
            :class:`~repro.core.errors.CheckpointError`).
        min_support: the initial absolute (int) or relative (float)
            threshold.
        state_dir: directory for the WAL + snapshot; ``None`` runs
            purely in memory (no durability — tests and benchmarks).
        durable: ``False`` skips per-record fsync (tests only).
        compact_every: fold the WAL into a snapshot after this many
            logged records.
        repair_limit: per-update border-repair budget before falling
            back to a full remine (``None`` = never fall back).
        tracer: optional tracer (``service.*`` and ``wal.*`` events).
            :meth:`mine`, :meth:`append`, and :meth:`set_threshold`
            additionally accept a per-call ``tracer`` override so the
            HTTP layer can route each request's records through its
            request-scoped tracer.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            for the always-on production instruments: every durable
            WAL fsync is observed into ``repro_wal_fsync_seconds`` and
            every compaction into ``repro_compaction_seconds``.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        min_support: int | float,
        *,
        state_dir: str | os.PathLike | None = None,
        durable: bool = True,
        compact_every: int = 64,
        repair_limit: int | None = None,
        tracer=None,
        registry=None,
    ):
        self._tracer = as_tracer(tracer)
        self._registry = registry
        self._lock = threading.RLock()
        self._compact_every = compact_every
        self._repair_limit = repair_limit
        self._ledger: dict[str, int] = {}
        self._dir = os.fspath(state_dir) if state_dir is not None else None
        self._wal: WriteAheadLog | None = None
        # Th ∪ Bd- of the last complete cold mine, re-based to the last
        # cold threshold it answered: outside the state, the digest,
        # the snapshot and the WAL, so a restart starts without it.
        self._table: SupportTable | None = None
        self._table_lock = threading.Lock()
        # The JSON array of the rows the digest has encoded so far: the
        # database only appends, so a digest encodes only newer rows.
        self._rows_json = bytearray(b"[]")
        self._rows_encoded = 0

        snapshot_seq = 0
        state: MaintainedTheory | None = None
        if self._dir is not None:
            os.makedirs(self._dir, exist_ok=True)
            snapshot_path = os.path.join(self._dir, SNAPSHOT_NAME)
            if os.path.exists(snapshot_path):
                state, snapshot_seq, self._ledger = self._load_snapshot(
                    snapshot_path, database.universe
                )
        if state is None:
            state = mine_initial(database, min_support)
        self._published = Published(state, snapshot_seq)

        if self._dir is not None:
            fsync_observer = None
            if registry is not None:
                from repro.obs.metrics import LATENCY_SECONDS_BUCKETS

                fsync_histogram = registry.histogram(
                    "repro_wal_fsync_seconds",
                    boundaries=LATENCY_SECONDS_BUCKETS,
                )
                fsync_observer = fsync_histogram.observe
            self._wal = WriteAheadLog(
                os.path.join(self._dir, WAL_NAME),
                start_seq=snapshot_seq,
                durable=durable,
                tracer=self._tracer,
                fsync_observer=fsync_observer,
            )
            replayed = len(self._wal.records)
            for record in self._wal.records:
                self._apply(
                    record.get("kind"), record, record["seq"], record.get("op")
                )
            if self._tracer.enabled:
                self._tracer.event(
                    "service.recover",
                    snapshot_seq=snapshot_seq,
                    replayed=replayed,
                    seq=self.seq,
                )

    # -- recovery -----------------------------------------------------

    @staticmethod
    def _load_snapshot(
        path: str, universe: Universe
    ) -> tuple[MaintainedTheory, int, dict[str, int]]:
        checkpoint = Checkpoint.load(path)
        checkpoint.validate_for("service", universe)
        try:
            payload = checkpoint.state
            backend = str(payload.get("backend", "auto"))
            if backend in _RETIRED_BACKENDS:
                backend = "auto"
            database = TransactionDatabase(
                universe,
                [int(r) for r in payload["rows"]],
                backend=backend,
            )
            negative = tuple(int(m) for m in payload["negative"])
            # The snapshot holds no Bd- supports: count them on the
            # restored rows, one mask at a time — the batched numpy
            # kernel's masks × row-chunks arrays over the full database
            # would set the service's peak memory (EXPERIMENTS.md, P13).
            count = database.support_count
            state = MaintainedTheory(
                database=database,
                threshold=int(payload["threshold"]),
                supports={
                    int(mask): int(supp)
                    for mask, supp in payload["supports"]
                },
                maximal=tuple(int(m) for m in payload["maximal"]),
                negative=negative,
                negative_supports=tuple(count(mask) for mask in negative),
                queries=int(payload["queries"]),
                support_updates=int(payload["support_updates"]),
                repairs=int(payload["repairs"]),
                remines=int(payload["remines"]),
            )
            seq = int(payload["seq"])
            ledger = {str(op): int(s) for op, s in payload["ledger"]}
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"malformed service snapshot {path!r}: {error}"
            ) from error
        return state, seq, ledger

    def _apply(
        self,
        kind: str,
        payload: dict[str, Any],
        seq: int,
        op_id: str | None,
        tracer=None,
    ) -> RepairStats:
        """Apply one logged operation — a live write or a replayed WAL
        record — and publish the state it makes as ``seq``."""
        if kind == "append":
            new_state, stats = apply_append(
                self.state,
                payload["rows"],
                repair_limit=self._repair_limit,
                tracer=tracer,
            )
        elif kind == "threshold":
            new_state, stats = self._move_threshold(payload["value"], tracer)
        else:
            raise WALError(f"unknown WAL record kind {kind!r}")
        self._published = Published(new_state, seq)
        if op_id is not None:
            self._ledger[op_id] = seq
        return stats

    # -- reads (lock-free: one reference grab) ------------------------

    @property
    def published(self) -> Published:
        """The current ``(state, seq)`` pair, read as one reference."""
        return self._published

    @property
    def state(self) -> MaintainedTheory:
        """The current immutable maintained theory."""
        return self._published.state

    @property
    def seq(self) -> int:
        """Sequence number of the last applied operation."""
        return self._published.seq

    def mine(
        self,
        min_support: int | float | None = None,
        *,
        budget=None,
        tracer=None,
        state: MaintainedTheory | None = None,
    ):
        """Frequent itemsets at ``min_support`` (default: maintained).

        The maintained threshold is answered from the state; a
        stricter one from a table built from the state for this call,
        with **zero** database work — Theorem 2 certifies the read.  A
        looser threshold is read from the support table of an earlier
        cold mine when its floor is at or below it: the table first
        counts the rows appended since, then answers by comparison and
        re-bases to this threshold.  Any other threshold falls through
        to a real :func:`~repro.mining.eclat.eclat` run on the hot
        database under the caller's budget, which may return a certified
        :class:`~repro.runtime.partial.PartialResult`; a complete run
        becomes the support table unless it holds more than
        ``_TABLE_CAP`` times the state's ``|Th ∪ Bd-|`` members.  None
        of this touches the state, its charges or its digest.

        ``tracer`` overrides the core tracer for this one call (the
        HTTP layer passes the request-scoped tracer): the call runs
        under a ``service.mine`` span whose close note records the
        source, and a cold mine passes the tracer into
        :func:`~repro.mining.eclat.eclat` so the request trace carries
        the full, monitor-certifiable ``eclat.run`` tree.  ``state``
        answers from a state read earlier from :attr:`published`
        instead of the current one: the HTTP layer splices that
        state's encoded families into a hot body.

        Returns:
            ``("hot" | "table" | "mined", dict)`` on completion — the
            dict holds ``threshold``, ``supports`` (the caller's own
            dict), ``maximal``, ``negative`` and ``queries`` (0 unless
            mined) — or ``("partial", PartialResult)`` on a deadline
            cut.
        """
        t = self._tracer if tracer is None else as_tracer(tracer)
        if state is None:
            state = self.state
        if min_support is None:
            threshold = state.threshold
        else:
            threshold = state.database.absolute_support(min_support)
        with t.span("service.mine", threshold=threshold) as span:
            read = None
            if threshold == state.threshold:
                source = "hot"
                supports = dict(state.supports)
                maximal, negative = state.maximal, state.negative
            elif threshold > state.threshold:
                source, read = "hot", state._new_table().read(threshold)
            else:
                source = "table"
                read = self._read_table(state.database, threshold)
            if read is not None:
                supports = dict(zip(
                    read.theory.tolist(), read.theory_supports.tolist()
                ))
                maximal = tuple(read.maximal.tolist())
                negative = tuple(read.negative.tolist())
            if source == "hot" or read is not None:
                span.note(source=source, queries=0)
                return source, {
                    "threshold": threshold,
                    "supports": supports,
                    "maximal": maximal,
                    "negative": negative,
                    "queries": 0,
                }
            result = eclat(
                state.database, threshold, budget=budget, tracer=t
            )
            if isinstance(result, PartialResult):
                span.note(source="partial", queries=result.queries)
                return "partial", result
            members = len(result.supports) + len(result.negative_border)
            if members <= _TABLE_CAP * (
                len(state.supports) + len(state.negative)
            ):
                table = SupportTable(
                    len(state.database.universe),
                    result.supports,
                    result.negative_border,
                    result.border_supports,
                    threshold,
                    state.database.n_transactions,
                )
                with self._table_lock:
                    self._table = table
            span.note(source="mined", queries=result.queries)
            return "mined", {
                "threshold": threshold,
                "supports": result.supports,
                "maximal": result.maximal,
                "negative": result.negative_border,
                "queries": result.queries,
            }

    def _read_table(self, database: TransactionDatabase, threshold: int):
        """The support table's answer at ``threshold`` on ``database``,
        re-basing the table to it; ``None`` when the table cannot
        answer (none yet, a higher floor, or counted on newer rows than
        ``database`` holds)."""
        with self._table_lock:
            table = self._table
            if (
                table is None
                or table.floor > threshold
                or table.n_rows > database.n_transactions
            ):
                return None
            table.sync(database)
            read = table.read(threshold)
            table.rebase(threshold)
            return read

    def member(self, mask: int) -> dict:
        """Certified membership of ``mask`` via the border bracket."""
        state = self.state
        if mask & ~state.database.universe.full_mask:
            raise ValueError("mask uses items outside the universe")
        frequent, witness = state.member_witness(mask)
        return {
            "mask": mask,
            "frequent": frequent,
            "witness": witness,
            "witness_kind": "Bd+" if frequent else "Bd-",
            "threshold": state.threshold,
        }

    # -- mutations (WAL-first, deduped, compacting) -------------------

    def append(
        self,
        rows: list[int],
        *,
        op_id: str | None = None,
        tracer=None,
    ) -> tuple[int, RepairStats | None, str]:
        """Durably append transactions and repair the borders.

        Returns ``(seq, stats, digest)``.  For a new operation ``seq``
        is its sequence number and ``digest`` is :meth:`digest` of the
        state at ``seq``, computed before the mutation lock is
        released, so the pair holds even under concurrent writers.
        When ``op_id`` was already applied (idempotent replay — state
        untouched), ``stats`` is ``None``, ``seq`` is the sequence
        number the op was first applied at, and ``digest`` describes
        the *current* state, which may be later than ``seq``: a client
        re-sending its whole history after a crash ends holding the
        digest of the state it converged on.  ``tracer`` overrides the
        core tracer for this one mutation's records (the HTTP layer's
        request-scoped tracer).
        """
        return self._mutate(
            "append", {"rows": [int(r) for r in rows]}, op_id, tracer
        )

    def set_threshold(
        self,
        min_support: int | float,
        *,
        op_id: str | None = None,
        tracer=None,
    ) -> tuple[int, RepairStats | None, str]:
        """Durably move the maintained threshold (same returns as
        :meth:`append`)."""
        return self._mutate(
            "threshold", {"value": min_support}, op_id, tracer
        )

    def _validate(self, kind: str, payload: dict[str, Any]) -> None:
        """Reject a bad operation *before* it reaches the WAL.

        A logged record is replayed unconditionally on every recovery,
        so anything that would make ``apply_append``/``apply_threshold``
        raise must be refused up front — otherwise one bad request
        durably poisons the log and the service can never restart.
        """
        if kind == "append":
            full = self.state.database.universe.full_mask
            for row in payload["rows"]:
                if row < 0 or row & ~full:
                    raise ValueError(
                        f"appended transaction {row} uses items "
                        "outside the universe"
                    )
        else:
            self.state.database.absolute_support(payload["value"])

    def _mutate(
        self,
        kind: str,
        payload: dict[str, Any],
        op_id: str | None,
        tracer=None,
    ) -> tuple[int, RepairStats | None, str]:
        if op_id is not None and not isinstance(op_id, str):
            # The ledger sorts its ids and a snapshot restores them as
            # strings: another type would break the digest and dedup.
            raise ValueError("op must be a string")
        t = self._tracer if tracer is None else as_tracer(tracer)
        with self._lock:
            if op_id is not None and op_id in self._ledger:
                return self._ledger[op_id], None, self.digest()
            self._validate(kind, payload)
            if self._wal is not None:
                with t.span("service.wal", kind=kind):
                    seq = self._wal.append(
                        kind,
                        tracer=tracer,
                        **payload,
                        **({} if op_id is None else {"op": op_id}),
                    )
            else:
                seq = self.seq + 1
            with t.span("service.apply", kind=kind):
                stats = self._apply(kind, payload, seq, op_id, t)
            if t.enabled:
                t.event(
                    "service.append" if kind == "append" else
                    "service.threshold",
                    seq=seq,
                    evaluated=stats.evaluated,
                    remined=stats.remined,
                )
            if (
                self._wal is not None
                and self._wal.pending() >= self._compact_every
            ):
                self.compact()
            return seq, stats, self.digest()

    def _move_threshold(self, value, tracer):
        """:func:`~repro.service.incremental.apply_threshold`.  A lower
        is read from the support table when its floor covers the new
        threshold (the table first counts the rows appended since it
        was last used); a raise, or a lower it does not cover, goes
        through a table built from the state and leaves the support
        table alone.  WAL replay takes this path too: recovery starts
        with no support table, so its moves are the closure's."""
        state = self.state
        threshold = state.database.absolute_support(value)
        if threshold < state.threshold:
            with self._table_lock:
                table = self._table
                if table is not None and table.floor <= threshold:
                    table.sync(state.database)
                    return apply_threshold(
                        state,
                        value,
                        repair_limit=self._repair_limit,
                        tracer=tracer,
                        table=table,
                    )
        return apply_threshold(
            state, value, repair_limit=self._repair_limit, tracer=tracer
        )

    def compact(self) -> None:
        """Fold the WAL into a durable snapshot and restart it empty.

        Ordering is the crash-safety crux: the snapshot is written
        first (atomic + durable), the WAL reset second.  A kill between
        the two leaves a snapshot plus a log of already-folded records,
        which recovery skips via the snapshot's sequence number.
        """
        if self._dir is None or self._wal is None:
            return
        with self._lock:
            t0 = time.perf_counter()
            state, seq = self._published
            checkpoint = Checkpoint(
                algorithm="service",
                universe_items=tuple(state.database.universe.items),
                state=_state_payload(state, seq, self._ledger),
                accounting={"queries": state.queries},
            )
            checkpoint.save(os.path.join(self._dir, SNAPSHOT_NAME))
            self._wal.reset(seq)
            if self._registry is not None:
                self._registry.histogram(
                    "repro_compaction_seconds"
                ).observe(time.perf_counter() - t0)
            if self._tracer.enabled:
                self._tracer.event("service.compact", seq=seq)

    # -- identity -----------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the canonical full state (data, theory,
        borders, accounting, ledger) — two cores with equal digests are
        bit-identical, which is the chaos suite's acceptance check.

        The hashed text is ``json.dumps(_state_payload(state, seq,
        ledger), sort_keys=True, separators=(",", ":"))``, fed to
        SHA-256 field by field in that key order: the rows from the
        encoding this core keeps (extended by the rows appended since
        the last digest), the families from the state's own
        (:meth:`~repro.service.incremental.MaintainedTheory.encoded`),
        every other field encoded here."""
        digest = hashlib.sha256()
        with self._lock:
            state, seq = self._published
            rows = state.database._masks_view()  # no copy of every row
            if len(rows) > self._rows_encoded:
                encoded = compact(rows[self._rows_encoded:])
                if self._rows_encoded:  # replace "]" with ",new rows]"
                    self._rows_json[-1:] = b"," + encoded[1:]
                else:
                    self._rows_json[:] = encoded
                self._rows_encoded = len(rows)
            payload = _state_payload(state, seq, self._ledger, self._rows_json)
            for piece in object_pieces(sorted(payload.items())):
                digest.update(piece)
        return digest.hexdigest()

    def metrics(self) -> dict:
        """Counters for ``/metrics`` (monotone within a process life)."""
        state, seq = self._published
        return {
            "seq": seq,
            "n_transactions": state.database.n_transactions,
            "n_items": len(state.database.universe),
            "threshold": state.threshold,
            "theory_size": len(state.supports),
            "positive_border": len(state.maximal),
            "negative_border": len(state.negative),
            "rank": max(
                (popcount(m) for m in state.maximal), default=0
            ),
            "queries": state.queries,
            "support_updates": state.support_updates,
            "repairs": state.repairs,
            "remines": state.remines,
            "wal_pending": self._wal.pending() if self._wal else 0,
        }

    def close(self) -> None:
        """Release the WAL file handle (idempotent).

        Taken under the core lock, so an in-flight mutation (WAL append
        + apply) always completes before the file closes; a mutation
        arriving afterwards fails cleanly with
        :class:`~repro.core.errors.WALError` instead of writing to a
        closed file mid-protocol.
        """
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    def __enter__(self) -> "ServiceCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
