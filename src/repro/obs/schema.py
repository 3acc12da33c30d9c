"""The trace event schema, and validation against it.

A trace record is one JSON object with the structural fields

========== ============ ==================================================
field      kinds        meaning
========== ============ ==================================================
``kind``   all          ``span_open`` / ``span_close`` / ``event`` /
                        ``counter`` / ``gauge``
``name``   all          dotted event name (catalogue below)
``ts``     all          seconds since trace start (monotonic, ≥ 0,
                        non-decreasing along the file)
``id``     spans        span id (positive int, unique per trace)
``parent`` span_open    enclosing span id (absent at top level)
``dur``    span_close   seconds the span was open
``error``  span_close   exception type name when the region raised
``delta``  counter      increment (int)
``value``  gauge        sampled value (number)
``attrs``  all          name-specific payload (object; absent if empty)
========== ============ ==================================================

:data:`KNOWN_EVENTS` catalogues every name the library emits together
with the attrs each record is required to carry; names outside the
catalogue are structurally validated but their attrs are free-form, so
user code can add events without touching this module.

``validate_record`` / ``validate_trace`` return human-readable problem
strings (empty = valid); ``make trace-smoke`` and the regression tests
run every emitted line through them.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterable
from typing import Any

__all__ = [
    "KINDS",
    "KNOWN_EVENTS",
    "validate_record",
    "validate_trace",
    "parse_trace",
]

KINDS = ("span_open", "span_close", "event", "counter", "gauge")

#: name -> (kind, required attr keys).  span entries list the attrs of
#: the *open* record; close records carry the ``note()`` summary, whose
#: keys are documented here after the ``/``-marker but only checked for
#: non-error closes (an exception may abort before the note).
KNOWN_EVENTS: dict[str, tuple[str, tuple[str, ...]]] = {
    # oracle (repro.core.oracle)
    "oracle.query": ("event", ("mask", "answer", "charged")),
    "oracle.batch": ("event", ("size", "fresh")),
    "oracle.cache_hit": ("counter", ()),
    "oracle.cache_miss": ("counter", ()),
    # levelwise (repro.mining.levelwise)
    "levelwise.run": ("span_open", ("n", "resumed")),
    "levelwise.level": ("span_open", ("rank", "candidates")),
    "levelwise.generate": ("span_open", ("rank",)),
    "levelwise.done": (
        "event",
        ("queries", "theory", "negative", "maximal", "rank", "n"),
    ),
    # eclat (repro.mining.eclat)
    "eclat.run": ("span_open", ("n", "threshold")),
    "eclat.node": ("event", ("prefix", "tail", "kind")),
    "eclat.done": (
        "event",
        (
            "queries",
            "theory",
            "negative",
            "maximal",
            "rank",
            "n",
            "nodes",
            "diffset_nodes",
        ),
    ),
    # dualize and advance (repro.mining.dualize_advance)
    "dualize.run": ("span_open", ("engine", "incremental", "resumed")),
    "dualize.probe": ("event", ("mask", "answer", "fresh")),
    "dualize.counterexample": ("event", ("mask", "iteration")),
    "dualize.maximal": ("event", ("mask", "iteration", "enumerated")),
    "dualize.family": ("gauge", ()),
    "dualize.done": (
        "event",
        ("queries", "maximal", "negative", "iterations", "rank", "n"),
    ),
    # maxminer (repro.mining.maxminer)
    "maxminer.run": ("span_open", ("n",)),
    "maxminer.node": ("event", ("head", "tail", "action")),
    "maxminer.done": (
        "event",
        ("queries", "maximal", "nodes", "lookaheads"),
    ),
    # apriori (repro.mining.apriori)
    "apriori.run": ("span_open", ("n", "threshold")),
    "apriori.level": ("span_open", ("level", "candidates")),
    "apriori.done": (
        "event",
        ("passes", "frequent", "negative", "threshold"),
    ),
    # dualization engines (repro.hypergraph)
    "berge.run": ("span_open", ("edges",)),
    "berge.edge": ("span_open", ("index", "family_in")),
    "fk.check": ("span_open", ("f_terms", "g_terms")),
    "fk.node": ("event", ("depth", "f_terms", "g_terms")),
    "fk.witness": ("event", ("kind",)),
    "mmcs.run": ("span_open", ("edges",)),
    "mmcs.node": ("event", ("depth", "uncov", "cand")),
    "mmcs.output": ("event", ("mask",)),
    "mmcs.done": (
        "event",
        ("family", "nodes", "edges", "n", "traced"),
    ),
    # parallel execution (repro.parallel)
    "worker.pool": ("event", ("workers",)),
    "worker.batch": ("event", ("shard", "size")),
    "worker.crash": ("event", ("error",)),
    "worker.fallback": ("event", ("reason",)),
    "worker.task": ("span_open", ("position",)),
    # shared-memory vertical store (repro.parallel.shm)
    "shm.publish": ("event", ("segment", "bytes", "rows", "items")),
    "shm.attach": ("event", ("segment", "workers")),
    # write-ahead log (repro.service.wal)
    "wal.record": ("event", ("seq", "kind")),
    "wal.recover": ("event", ("records", "last_seq", "torn")),
    # mining service (repro.service)
    "service.request": ("span_open", ("endpoint",)),
    "service.append": ("event", ("seq", "evaluated", "remined")),
    "service.threshold": ("event", ("seq", "evaluated", "remined")),
    "service.repair": (
        "event",
        ("evaluated", "promoted", "dropped", "remined"),
    ),
    "service.remine": ("event", ("reason",)),
    "service.recover": ("event", ("snapshot_seq", "replayed", "seq")),
    "service.compact": ("event", ("seq",)),
    "service.shed": ("event", ("waiting", "queued")),
    "service.deadline": ("event", ("reason",)),
    "service.admission": ("span_open", ()),
    "service.mine": ("span_open", ("threshold",)),
    "service.wal": ("span_open", ("kind",)),
    "service.apply": ("span_open", ("kind",)),
}


def validate_record(
    record: Any, previous_ts: float | None = None
) -> list[str]:
    """Structural + catalogue validation of one parsed trace record.

    Args:
        record: the parsed JSON value of one line.
        previous_ts: the previous record's ``ts`` for monotonicity
            checking (``None`` skips that check).

    Returns:
        Problem descriptions; an empty list means the record is valid.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    kind = record.get("kind")
    if kind not in KINDS:
        problems.append(f"unknown kind {kind!r}")
        return problems
    name = record.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"missing or empty name in {kind} record")
        return problems
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        problems.append(f"{name}: ts must be a non-negative number")
    elif previous_ts is not None and ts < previous_ts:
        problems.append(
            f"{name}: ts went backwards ({ts} after {previous_ts})"
        )
    if kind in ("span_open", "span_close"):
        span_id = record.get("id")
        if not isinstance(span_id, int) or span_id < 1:
            problems.append(f"{name}: span id must be a positive int")
    if kind == "span_close":
        if not isinstance(record.get("dur"), (int, float)):
            problems.append(f"{name}: span_close requires numeric dur")
    if kind == "counter" and not isinstance(record.get("delta"), int):
        problems.append(f"{name}: counter requires integer delta")
    if kind == "gauge" and not isinstance(
        record.get("value"), (int, float)
    ):
        problems.append(f"{name}: gauge requires numeric value")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        problems.append(f"{name}: attrs must be an object")
        attrs = {}

    known = KNOWN_EVENTS.get(name)
    if known is not None:
        expected_kind, required = known
        if expected_kind == "span_open":
            if kind not in ("span_open", "span_close"):
                problems.append(
                    f"{name}: catalogued as a span, emitted as {kind}"
                )
            required = required if kind == "span_open" else ()
        elif kind != expected_kind:
            problems.append(
                f"{name}: catalogued as {expected_kind}, emitted as {kind}"
            )
            required = ()
        for key in required:
            if key not in attrs:
                problems.append(f"{name}: missing required attr {key!r}")
    return problems


def validate_trace(records: Iterable[Any]) -> list[str]:
    """Validate a whole record sequence, including span balance.

    Beyond per-record checks this verifies that every ``span_open`` has
    exactly one matching ``span_close`` (same id, same name) — the
    property the exception-safety machinery guarantees — and that
    timestamps never decrease.
    """
    problems: list[str] = []
    open_spans: dict[int, str] = {}
    previous_ts: float | None = None
    for index, record in enumerate(records):
        for problem in validate_record(record, previous_ts):
            problems.append(f"line {index + 1}: {problem}")
        if isinstance(record, dict):
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                previous_ts = ts
            kind = record.get("kind")
            if kind == "span_open":
                open_spans[record.get("id")] = record.get("name")
            elif kind == "span_close":
                opened = open_spans.pop(record.get("id"), None)
                if opened is None:
                    problems.append(
                        f"line {index + 1}: span_close "
                        f"{record.get('name')!r} without a matching open"
                    )
                elif opened != record.get("name"):
                    problems.append(
                        f"line {index + 1}: span_close name "
                        f"{record.get('name')!r} does not match open "
                        f"{opened!r}"
                    )
    for span_id, name in open_spans.items():
        problems.append(f"span {name!r} (id {span_id}) was never closed")
    return problems


def parse_trace(path: str) -> list[dict]:
    """Read a JSONL trace file into a list of records.

    A torn *final* line — the normal artifact of a process killed
    mid-write (the writer flushes per line but a crash can still land
    between bytes) — is tolerated with a :class:`UserWarning` so traces
    from crashed long-lived processes stay analyzable.  The tolerance
    mirrors the WAL's torn-tail rule: only a final line *without a
    trailing newline* can be a crash artifact.  A bad line that is
    newline-terminated was fully written and is therefore corruption —
    an error, final or not — as is any bad line with valid lines after
    it.

    Raises:
        ValueError: on an invalid line that is not a torn tail (with
            the line number in the message).
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_number = len(lines)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError as error:
            if number == last_number and not line.endswith("\n"):
                warnings.warn(
                    f"{path}:{number}: ignoring torn final line "
                    f"({error})",
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"{path}:{number}: not valid JSON: {error}"
            ) from error
    return records
