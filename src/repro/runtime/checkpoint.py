"""JSON checkpoint/resume for the resumable engines.

A checkpoint is a self-contained snapshot of an engine's loop state plus
the full oracle transcript and the query accounting charged so far.  On
resume the transcript is *primed* into the fresh oracle's memo (see
:meth:`repro.core.oracle.CountingOracle.prime`), so no sentence is ever
re-evaluated, and the engine continues from the exact probe boundary it
stopped at — the resumed run's theory, borders, and query accounting are
bit-identical to an uninterrupted run (property-tested).

Format notes:

* masks are arbitrary-precision integers; JSON handles them natively;
* the oracle history is stored as ``[[mask, answer], ...]`` because
  JSON object keys must be strings;
* universe items must be JSON scalars (int/str/float/bool) — true of
  every dataset loader in this library; anything else raises
  :class:`~repro.core.errors.CheckpointError` at save time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.core.errors import CheckpointError
from repro.util.bitset import Universe
from repro.util.fsio import atomic_write

__all__ = ["Checkpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

_SCALARS = (int, str, float, bool)


@dataclass
class Checkpoint:
    """A resumable engine snapshot.

    Attributes:
        algorithm: ``"levelwise"`` or ``"dualize_advance"``.
        universe_items: the universe's items in bit-index order.
        state: engine-specific loop state (documented in each engine).
        history: the oracle transcript — every (mask, answer) charged.
        accounting: engine-relative counters at save time:
            ``{"queries": distinct, "total_calls": ..., "evaluations": ...,
            "elapsed": seconds}``.  ``elapsed`` is the cumulative
            wall-clock across all segments up to the save (the resumed
            engine restarts its own clock and adds this base), so a
            resumed run reports honest total compute time, not the time
            since the last resume.
        version: format version for forward compatibility.
        predicate: the name of the oracle that answered ``history``
            (``None`` for an unnamed one, and in checkpoints written
            before the record existed); a resume under another name is
            refused, since the transcript answers this predicate only.
    """

    algorithm: str
    universe_items: tuple
    state: dict
    history: dict[int, bool] = field(default_factory=dict)
    accounting: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION
    predicate: str | None = None

    def to_json(self) -> str:
        for item in self.universe_items:
            if not isinstance(item, _SCALARS):
                raise CheckpointError(
                    f"universe item {item!r} is not JSON-serializable; "
                    "checkpointing requires scalar item labels"
                )
        payload = {
            "version": self.version,
            "algorithm": self.algorithm,
            "universe_items": list(self.universe_items),
            "state": self.state,
            "history": [
                [mask, bool(answer)]
                for mask, answer in sorted(self.history.items())
            ],
            "accounting": self.accounting,
            "predicate": self.predicate,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"malformed checkpoint JSON: {error}") from error
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint JSON must be an object")
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this library writes version {CHECKPOINT_VERSION})"
            )
        try:
            return cls(
                algorithm=payload["algorithm"],
                universe_items=tuple(payload["universe_items"]),
                state=payload["state"],
                history={
                    int(mask): bool(answer)
                    for mask, answer in payload["history"]
                },
                accounting=payload.get("accounting", {}),
                version=version,
                predicate=payload.get("predicate"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed checkpoint: {error}") from error

    def save(self, path: str | os.PathLike) -> None:
        """Write atomically *and durably*: unique same-directory temp
        file, fsync, ``os.replace``, directory fsync.  A crash (or
        ``SIGKILL``) at any instant leaves either the previous
        checkpoint or the new one, never a truncated mix — the WAL
        compaction protocol depends on exactly this guarantee."""
        atomic_write(path, self.to_json().encode("ascii"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        try:
            with open(path, "r", encoding="ascii") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {os.fspath(path)!r}: {error}"
            ) from error

    @classmethod
    def coerce(cls, source: "Checkpoint | str | os.PathLike") -> "Checkpoint":
        """Accept a checkpoint object, a path, or raw JSON text."""
        if isinstance(source, cls):
            return source
        text = os.fspath(source)
        if text.lstrip().startswith("{"):
            return cls.from_json(text)
        return cls.load(text)

    def validate_for(
        self, algorithm: str, universe: Universe, predicate: str | None = None
    ) -> None:
        """Reject resumes against the wrong engine, universe or predicate.

        ``predicate`` is the resuming oracle's name; it is checked when
        both it and the recorded one are given.
        """
        if self.algorithm != algorithm:
            raise CheckpointError(
                f"checkpoint is for {self.algorithm!r}, not {algorithm!r}"
            )
        if tuple(self.universe_items) != tuple(universe.items):
            raise CheckpointError(
                "checkpoint universe does not match the current universe"
            )
        recorded = self.predicate
        if None not in (recorded, predicate) and recorded != predicate:
            raise CheckpointError(
                f"checkpoint was taken with predicate={recorded!r}, "
                f"cannot resume with predicate={predicate!r}"
            )
