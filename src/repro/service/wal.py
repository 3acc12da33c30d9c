"""A CRC-guarded, fsync'd JSONL write-ahead log.

The durability contract of the mining service: every mutation (an
``/append`` batch, a threshold change) is serialized, CRC-stamped,
written, *fsync'd*, and only then applied to the in-memory state.  A
``SIGKILL`` at any instant therefore leaves one of exactly two disk
states per operation — fully durable or absent/torn — and recovery
replays the durable prefix deterministically, which is what makes the
recovered state bit-identical to an uninterrupted run (the chaos suite
asserts this at randomized kill points).

On-disk format — one record per line::

    {"crc": 3735928559, "rec": {"seq": 7, "kind": "append", ...}}

* ``rec`` is the operation payload; ``seq`` is a contiguous sequence
  number (recovery rejects gaps — a missing middle record means the
  file was damaged at rest, not crashed).
* ``crc`` is the CRC-32 of the canonical JSON serialization of ``rec``
  (sorted keys, compact separators) — the exact bytes embedded in the
  line, so verification is a re-serialize-and-compare.

Torn-tail tolerance: a crash can leave the *final* line incomplete
(partial write, missing newline, failed CRC).  Recovery tolerates
exactly that — the torn tail is logged and physically truncated before
new appends — while a bad record *followed by valid ones* raises
:class:`~repro.core.errors.WALError`: that is corruption, not a crash
artifact, and replaying past it would serve an uncertified state.

Compaction: the service periodically folds the log into a snapshot (the
existing :class:`~repro.runtime.checkpoint.Checkpoint` format, written
atomically+durably) and calls :meth:`WriteAheadLog.reset` with the
snapshot's sequence number; the log restarts empty and recovery replays
only records newer than the snapshot.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from typing import Any

from repro.core.errors import WALError
from repro.obs.tracer import as_tracer
from repro.util.fsio import fsync_directory

__all__ = ["WriteAheadLog", "WALError"]


def _canonical(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _scan(path: str) -> tuple[list[dict], int, str | None]:
    """Parse a WAL file into ``(records, durable_bytes, torn_reason)``.

    ``durable_bytes`` is the offset just past the last fully valid
    line; ``torn_reason`` describes the tolerated torn tail (``None``
    when the file ends cleanly).

    Raises:
        WALError: on a bad record that is *not* the final line, or on a
            sequence gap between valid records.
    """
    records: list[dict] = []
    durable = 0
    torn: str | None = None
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return records, 0, None
    with handle:
        data = handle.read()
    lines = data.split(b"\n")
    # A trailing newline yields a final empty chunk; its absence means
    # the last line was torn mid-write.
    complete = lines[:-1]
    tail = lines[-1]
    for number, raw in enumerate(complete, start=1):
        problem = None
        rec = None
        try:
            envelope = json.loads(raw.decode("utf-8"))
            rec = envelope.get("rec")
            crc = envelope.get("crc")
            if not isinstance(rec, dict) or not isinstance(crc, int):
                problem = "missing crc/rec fields"
            elif zlib.crc32(_canonical(rec).encode("utf-8")) != crc:
                problem = "CRC mismatch"
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            problem = f"not valid JSON ({error})"
        if problem is None:
            seq = rec.get("seq")
            expected = records[-1]["seq"] + 1 if records else None
            if not isinstance(seq, int):
                problem = "missing integer seq"
            elif expected is not None and seq != expected:
                raise WALError(
                    f"{path}: sequence gap at line {number} "
                    f"(got seq {seq}, expected {expected})"
                )
        if problem is not None:
            if number == len(complete) and not tail:
                torn = f"line {number}: {problem}"
                break
            raise WALError(
                f"{path}: corrupt record at line {number} ({problem}) "
                "with valid records after it"
            )
        records.append(rec)
        durable += len(raw) + 1
    if tail:
        torn = f"line {len(complete) + 1}: torn tail ({len(tail)} bytes)"
    return records, durable, torn


class WriteAheadLog:
    """Appendable, recoverable JSONL WAL with per-record CRC and fsync.

    Args:
        path: the log file (created if absent; an existing file is
            scanned, its torn tail truncated, and appends continue
            after the last durable record).
        start_seq: sequence number of the state the log is *relative
            to* — the snapshot's last applied sequence.  An empty log
            starts numbering at ``start_seq + 1``; a non-empty log's
            first record may not be newer than ``start_seq + 1`` (a gap
            between snapshot and log means lost operations).
        durable: ``False`` skips the per-record fsync (tests and
            benchmarks only; the service always syncs).
        tracer: optional tracer — emits one ``wal.record`` event per
            append and a ``wal.recover`` event at open.
        fsync_observer: optional ``callable(seconds)`` invoked with the
            measured duration of each per-record fsync — the service
            feeds its ``repro_wal_fsync_seconds`` histogram through
            this, keeping the WAL itself metrics-agnostic.  Not called
            when ``durable`` is off (there is no fsync to measure).

    Attributes:
        records: the durable records recovered at open (replay input).
        torn: description of the tolerated torn tail, or ``None``.
    """

    __slots__ = (
        "path",
        "records",
        "torn",
        "last_seq",
        "records_written",
        "_durable",
        "_file",
        "_tracer",
        "_fsync_observer",
    )

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        start_seq: int = 0,
        durable: bool = True,
        tracer=None,
        fsync_observer=None,
    ):
        self.path = os.fspath(path)
        self._durable = durable
        self._tracer = as_tracer(tracer)
        self._fsync_observer = fsync_observer
        records, durable_bytes, torn = _scan(self.path)
        # Replay only what is newer than the snapshot; stale records
        # (<= start_seq) are already folded into the snapshot — a crash
        # between snapshot save and log reset leaves exactly this shape.
        self.records = [r for r in records if r["seq"] > start_seq]
        if self.records and self.records[0]["seq"] != start_seq + 1:
            raise WALError(
                f"{self.path}: log starts at seq {self.records[0]['seq']} "
                f"but the snapshot ends at seq {start_seq}"
            )
        self.torn = torn
        self.last_seq = records[-1]["seq"] if records else start_seq
        self.records_written = 0
        if torn is not None and os.path.exists(self.path):
            # Truncate the crash artifact so future appends are clean.
            with open(self.path, "r+b") as handle:
                handle.truncate(durable_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._file: io.BufferedWriter | None = open(self.path, "ab")
        if self._tracer.enabled:
            self._tracer.event(
                "wal.recover",
                records=len(self.records),
                last_seq=self.last_seq,
                torn=torn is not None,
            )

    def append(self, kind: str, tracer=None, **payload: Any) -> int:
        """Durably log one operation; returns its sequence number.

        The record is on disk (written, flushed, fsync'd) before this
        returns — the caller applies the operation only afterwards, so
        an acknowledged operation can never be lost to a crash.

        ``tracer`` overrides the constructor tracer for this one
        append's ``wal.record`` event — the service routes each HTTP
        request's events through a per-request buffer this way, so
        no payload key may be named ``tracer``.
        """
        if self._file is None:
            raise WALError(f"{self.path}: log is closed")
        seq = self.last_seq + 1
        rec = {"seq": seq, "kind": kind, **payload}
        body = _canonical(rec).encode("utf-8")
        line = (
            b'{"crc":'
            + str(zlib.crc32(body)).encode("ascii")
            + b',"rec":'
            + body
            + b"}\n"
        )
        self._file.write(line)
        self._file.flush()
        if self._durable:
            if self._fsync_observer is not None:
                t0 = time.perf_counter()
                os.fsync(self._file.fileno())
                self._fsync_observer(time.perf_counter() - t0)
            else:
                os.fsync(self._file.fileno())
        self.last_seq = seq
        self.records_written += 1
        record_tracer = self._tracer if tracer is None else tracer
        if record_tracer.enabled:
            record_tracer.event("wal.record", seq=seq, kind=kind)
        return seq

    def pending(self) -> int:
        """Records in the log (recovered + appended since last reset)."""
        return len(self.records) + self.records_written

    def reset(self, snapshot_seq: int) -> None:
        """Restart the log empty after a snapshot at ``snapshot_seq``.

        Crash-ordering: the caller persists the snapshot *first* (atomic
        + durable); only then is the log emptied, via an atomic replace
        of a fresh empty file.  A crash between the two steps leaves a
        snapshot plus a log of already-folded records, which the
        constructor's ``start_seq`` filter skips on recovery.
        """
        if snapshot_seq < self.last_seq:
            raise WALError(
                f"cannot reset to seq {snapshot_seq}: log already at "
                f"{self.last_seq}"
            )
        if self._file is not None:
            self._file.close()
        directory = os.path.dirname(self.path) or "."
        tmp_path = self.path + ".reset"
        with open(tmp_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        fsync_directory(directory)
        self.records = []
        self.records_written = 0
        self.last_seq = snapshot_seq
        self._file = open(self.path, "ab")

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, last_seq={self.last_seq}, "
            f"pending={self.pending()})"
        )
