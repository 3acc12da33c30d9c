"""Online verification of the paper's theorems against the trace stream.

The paper's quantitative claims are *query-accounting* statements, and a
trace is a complete record of the accounting, so they can be checked
while the run happens (:meth:`TheoremMonitor.feed_record` is a record
consumer — attach it to a :class:`~repro.obs.tracer.RecordTracer` next
to a :class:`~repro.obs.jsonl.JsonlTraceWriter`) or after the fact
against a recorded trace (:meth:`TheoremMonitor.from_trace`).  Both
routes read the same records.

Checks performed:

* **Theorem 10** — on ``levelwise.done``: the reported distinct query
  count equals ``|Th| + |Bd-(Th)|``, *and* equals the number of charged
  ``oracle.query`` events the monitor itself counted (so a trace with a
  dropped or duplicated query event is flagged even when the engine's
  own arithmetic is internally consistent), *and* equals the sum of
  per-level candidate counts from the ``levelwise.level`` spans.
* **Theorem 12 / Corollaries 13–14** — the Corollary 13 instantiation
  ``queries ≤ 2^k · n · |MTh|`` of the ``dc(k)·width·|MTh|`` bound, and
  the Corollary 14 cap on ``|Bd-|``, tracked as measured-vs-bound pairs.
* **Eclat accounting** — on ``eclat.done``: the charged query events
  match the reported count, the Theorem 2 floor
  ``queries ≥ |MTh| + |Bd-|`` holds (depth-first enumeration evaluates
  a superset of ``Th ∪ Bd-``, never less than the border), and the
  Corollary 13 ceiling ``queries ≤ 2^k·n·|MTh| + 1`` holds (every
  evaluated mask is a frequent prefix plus one item, so
  ``queries ≤ n·|Th| + 1``; the ``+1`` is the ``∅`` probe).
* **Dualize-and-Advance bracket monotonicity** — every
  ``dualize.maximal`` event must genuinely grow ``Bd+``: the new
  maximal set is incomparable with every previous one (a subset would
  mean the bracket did not grow; a superset would mean an earlier
  "maximal" set was not maximal).  A counterexample must not be a
  previously probed negative (the frontier only shrinks).  On
  ``dualize.done`` the Theorem 21 bound is tracked with the repo's
  stated slack (`EXPERIMENTS.md`, Conventions):
  ``|MTh|·(|Bd-| + rank·width) + |Bd-| + 1``.
* **MMCS enumeration** — on ``mmcs.done``: the ``mmcs.output``
  events match the reported family size, the emitted family is an
  antichain (no output contains another — minimal hitting sets are
  incomparable by definition), and for fully traced serial runs
  (``traced=True``) the ``mmcs.node`` events match the reported search
  node count (parallel runs sum worker-side counts the workers did not
  trace, and report ``traced=False``).
* **Transcript consistency** — every mask reported maximal carries a
  ``True`` oracle answer somewhere in the trace; span opens and closes
  balance (the exception-safety guarantee).

The monitor is engine-relative: counters reset at each ``*.run`` span,
so one trace may contain several runs and each is certified separately.
Resumed runs report ``base_queries`` in their done events; the monitor
then checks only the freshly charged segment (resumed timing and
accounting restart, see ``docs/API.md`` §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

if False:  # pragma: no cover - import cycle guard, see _bounds()
    from repro.mining import bounds as _bounds_module


def _bounds():
    """Late import of :mod:`repro.mining.bounds`.

    ``repro.core.oracle`` imports ``repro.obs.tracer`` (hence this
    package), and the mining package imports the oracle — binding the
    bound helpers at module import time would close that cycle.
    """
    from repro.mining import bounds

    return bounds

__all__ = ["TheoremMonitor", "TheoremReport", "Check"]


@dataclass(frozen=True)
class Check:
    """One theorem checked against one run.

    ``bound`` is ``None`` for equality checks (Theorem 10), where
    ``expected`` carries the required value instead.
    """

    name: str
    ok: bool
    measured: int
    expected: int | None = None
    bound: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    """Everything the monitor concluded about the trace."""

    ok: bool
    violations: tuple[str, ...]
    checks: tuple[Check, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok

    def certified(self, name: str) -> bool:
        """True when at least one check of this theorem ran and all passed."""
        relevant = [check for check in self.checks if check.name == name]
        return bool(relevant) and all(check.ok for check in relevant)

    def summary(self) -> str:
        """One line for the CLI: pass/fail counts per theorem."""
        if not self.checks and not self.violations:
            return "theorem monitor: no certifiable events observed"
        passed = sum(1 for check in self.checks if check.ok)
        status = "ok" if self.ok else "VIOLATED"
        names = sorted({check.name for check in self.checks})
        return (
            f"theorem monitor: {status} "
            f"({passed}/{len(self.checks)} checks passed: "
            f"{', '.join(names) or 'none'}; "
            f"{len(self.violations)} violations)"
        )


class TheoremMonitor:
    """Checks paper invariants as trace records arrive."""

    def __init__(self):
        self._violations: list[str] = []
        self._checks: list[Check] = []
        self._open_spans: list[str] = []
        self._reset_run()

    def _reset_run(self) -> None:
        self._charged = 0
        self._history: dict[int, bool] = {}
        self._level_candidates: list[int] = []
        self._dualize_maximal: list[int] = []
        self._probed_negative: set[int] = set()
        self._mmcs_nodes = 0
        self._mmcs_outputs: list[int] = []

    # -- records ---------------------------------------------------------

    def feed_record(self, record: dict) -> None:
        """Check one trace record, live or replayed from a file."""
        kind = record.get("kind")
        if kind == "event":
            handler = _EVENT_HANDLERS.get(record.get("name"))
            if handler is not None:
                handler(self, record.get("attrs") or {})
        elif kind == "span_open":
            self._on_span_open(
                record.get("name", ""), record.get("attrs") or {}
            )
        elif kind == "span_close":
            self._on_span_close(record.get("name", ""))

    def _on_span_open(self, name: str, attrs: dict[str, Any]) -> None:
        self._open_spans.append(name)
        if name.endswith(".run"):
            self._reset_run()
        elif name == "levelwise.level":
            self._level_candidates.append(int(attrs.get("candidates", 0)))

    def _on_span_close(self, name: str) -> None:
        if name in self._open_spans:
            # Remove the innermost matching open (spans close LIFO).
            for index in range(len(self._open_spans) - 1, -1, -1):
                if self._open_spans[index] == name:
                    del self._open_spans[index]
                    break
        else:
            self._violations.append(
                f"span_close {name!r} without a matching span_open"
            )

    @classmethod
    def from_trace(cls, records) -> "TheoremMonitor":
        """Build a monitor and replay a recorded trace through it."""
        monitor = cls()
        for record in records:
            monitor.feed_record(record)
        return monitor

    # -- event handlers --------------------------------------------------

    def _on_oracle_query(self, attrs: dict[str, Any]) -> None:
        if attrs.get("charged"):
            self._charged += 1
        mask = attrs.get("mask")
        answer = attrs.get("answer")
        if isinstance(mask, int):
            previous = self._history.get(mask)
            if previous is not None and previous != bool(answer):
                self._violations.append(
                    f"oracle answered {mask:#x} both ways "
                    "(non-deterministic transcript)"
                )
            self._history[mask] = bool(answer)

    def _charged_segment(self, attrs: dict[str, Any]) -> int:
        """The queries this trace segment should have charged."""
        return int(attrs.get("queries", 0)) - int(attrs.get("base_queries", 0))

    def _check_charged(self, engine: str, attrs: dict[str, Any]) -> None:
        expected = self._charged_segment(attrs)
        ok = self._charged == expected
        self._checks.append(
            Check(
                name="trace_accounting",
                ok=ok,
                measured=self._charged,
                expected=expected,
                detail=f"{engine}: charged oracle.query events vs reported "
                "query count",
            )
        )
        if not ok:
            self._violations.append(
                f"{engine}: trace carries {self._charged} charged query "
                f"events but the engine reported {expected} — events were "
                "dropped or duplicated"
            )

    def _on_levelwise_done(self, attrs: dict[str, Any]) -> None:
        queries = int(attrs.get("queries", 0))
        theory = int(attrs.get("theory", 0))
        negative = int(attrs.get("negative", 0))
        maximal = int(attrs.get("maximal", 0))
        rank = int(attrs.get("rank", 0))
        n = int(attrs.get("n", 0))
        resumed = bool(attrs.get("base_queries", 0))

        expected = _bounds().theorem10_exact_query_count(theory, negative)
        ok = queries == expected
        self._checks.append(
            Check(
                name="theorem10",
                ok=ok,
                measured=queries,
                expected=expected,
                detail=f"|Th|={theory} |Bd-|={negative}",
            )
        )
        if not ok:
            self._violations.append(
                f"Theorem 10 violated: {queries} queries but "
                f"|Th| + |Bd-| = {expected}"
            )
        self._check_charged("levelwise", attrs)
        if self._level_candidates and not resumed:
            total_candidates = sum(self._level_candidates)
            if total_candidates != queries:
                self._violations.append(
                    f"per-level candidate counts sum to {total_candidates} "
                    f"but {queries} queries were charged"
                )
        if maximal > 0:
            bound = _bounds().corollary13_frequent_sets_bound(rank, n, maximal)
            ok = queries <= bound
            self._checks.append(
                Check(
                    name="theorem12",
                    ok=ok,
                    measured=queries,
                    bound=bound,
                    detail=f"Corollary 13: 2^{rank}·{n}·{maximal}",
                )
            )
            if not ok:
                self._violations.append(
                    f"Theorem 12 bound violated: {queries} queries > "
                    f"2^k·n·|MTh| = {bound}"
                )
            bound = _bounds().corollary14_negative_border_bound(n, rank, maximal)
            ok = negative <= bound
            self._checks.append(
                Check(
                    name="corollary14",
                    ok=ok,
                    measured=negative,
                    bound=bound,
                    detail=f"|Bd-| cap for n={n}, k={rank}",
                )
            )
            if not ok:
                self._violations.append(
                    f"Corollary 14 bound violated: |Bd-| = {negative} > "
                    f"{bound}"
                )

    def _on_dualize_probe(self, attrs: dict[str, Any]) -> None:
        mask = attrs.get("mask")
        if isinstance(mask, int) and not attrs.get("answer"):
            self._probed_negative.add(mask)

    def _on_dualize_counterexample(self, attrs: dict[str, Any]) -> None:
        mask = attrs.get("mask")
        if isinstance(mask, int) and mask in self._probed_negative:
            self._violations.append(
                f"frontier grew back: counterexample {mask:#x} was "
                "already probed uninteresting"
            )

    def _on_dualize_maximal(self, attrs: dict[str, Any]) -> None:
        mask = attrs.get("mask")
        if not isinstance(mask, int):
            return
        for previous in self._dualize_maximal:
            if mask & previous == mask:
                self._violations.append(
                    f"Bd+ did not grow: new maximal {mask:#x} is contained "
                    f"in earlier maximal {previous:#x}"
                )
            elif mask & previous == previous:
                self._violations.append(
                    f"earlier set {previous:#x} was not maximal: "
                    f"{mask:#x} strictly contains it"
                )
        self._dualize_maximal.append(mask)

    def _on_dualize_done(self, attrs: dict[str, Any]) -> None:
        queries = int(attrs.get("queries", 0))
        maximal = int(attrs.get("maximal", 0))
        negative = int(attrs.get("negative", 0))
        rank = int(attrs.get("rank", 0))
        n = int(attrs.get("n", 0))
        resumed = bool(attrs.get("base_queries", 0))

        growth_ok = len(self._dualize_maximal) == maximal or resumed
        self._checks.append(
            Check(
                name="bracket_monotonicity",
                ok=growth_ok
                and not any("Bd+" in text for text in self._violations),
                measured=len(self._dualize_maximal),
                expected=maximal,
                detail="one dualize.maximal event per MTh member, "
                "pairwise incomparable",
            )
        )
        if not growth_ok:
            self._violations.append(
                f"dualize reported |MTh| = {maximal} but the trace shows "
                f"{len(self._dualize_maximal)} maximal events"
            )
        for mask in self._dualize_maximal:
            if self._history.get(mask) is not True:
                self._violations.append(
                    f"maximal set {mask:#x} lacks a True oracle answer "
                    "in the trace"
                )
        self._check_charged("dualize_advance", attrs)
        if maximal > 0:
            # Repo convention (EXPERIMENTS.md): + |Bd-| + 1 slack for the
            # explicit ∅ probe and the final full-border certification.
            bound = (
                _bounds().theorem21_dualize_advance_bound(
                    maximal, negative, rank, n
                )
                + negative
                + 1
            )
            ok = queries <= bound
            self._checks.append(
                Check(
                    name="theorem21",
                    ok=ok,
                    measured=queries,
                    bound=bound,
                    detail=f"|MTh|·(|Bd-|+rank·width) + |Bd-| + 1, "
                    f"width={n}",
                )
            )
            if not ok:
                self._violations.append(
                    f"Theorem 21 bound violated: {queries} queries > {bound}"
                )

    def _on_maxminer_done(self, attrs: dict[str, Any]) -> None:
        self._check_charged("maxminer", attrs)

    def _on_mmcs_node(self, attrs: dict[str, Any]) -> None:
        self._mmcs_nodes += 1

    def _on_mmcs_output(self, attrs: dict[str, Any]) -> None:
        mask = attrs.get("mask")
        if isinstance(mask, int):
            self._mmcs_outputs.append(mask)

    def _on_mmcs_done(self, attrs: dict[str, Any]) -> None:
        family = int(attrs.get("family", 0))
        nodes = int(attrs.get("nodes", 0))

        ok = len(self._mmcs_outputs) == family
        self._checks.append(
            Check(
                name="mmcs_outputs",
                ok=ok,
                measured=len(self._mmcs_outputs),
                expected=family,
                detail="mmcs: mmcs.output events vs reported family",
            )
        )
        if not ok:
            self._violations.append(
                f"mmcs: trace carries {len(self._mmcs_outputs)} "
                f"output events but the engine reported {family} — "
                "transversals were dropped or duplicated"
            )
        antichain_ok = True
        outputs = self._mmcs_outputs
        for index, mask in enumerate(outputs):
            for other in outputs[index + 1:]:
                if mask & other == mask or mask & other == other:
                    antichain_ok = False
                    self._violations.append(
                        f"mmcs: outputs {mask:#x} and {other:#x} are "
                        "comparable — the family is not an antichain, so "
                        "some output is not minimal"
                    )
                    break
            if not antichain_ok:
                break
        self._checks.append(
            Check(
                name="mmcs_antichain",
                ok=antichain_ok,
                measured=len(outputs),
                detail="mmcs: emitted family is an antichain",
            )
        )
        if attrs.get("traced"):
            ok = self._mmcs_nodes == nodes
            self._checks.append(
                Check(
                    name="mmcs_nodes",
                    ok=ok,
                    measured=self._mmcs_nodes,
                    expected=nodes,
                    detail="mmcs: mmcs.node events vs reported "
                    "search nodes",
                )
            )
            if not ok:
                self._violations.append(
                    f"mmcs: trace carries {self._mmcs_nodes} node "
                    f"events but the engine reported {nodes}"
                )

    def _on_eclat_done(self, attrs: dict[str, Any]) -> None:
        queries = int(attrs.get("queries", 0))
        negative = int(attrs.get("negative", 0))
        maximal = int(attrs.get("maximal", 0))
        rank = int(attrs.get("rank", 0))
        n = int(attrs.get("n", 0))

        self._check_charged("eclat", attrs)
        # Theorem 2 floor: any sound miner decides at least the border.
        floor = maximal + negative
        ok = queries >= floor
        self._checks.append(
            Check(
                name="theorem2_floor",
                ok=ok,
                measured=queries,
                bound=floor,
                detail=f"queries ≥ |MTh| + |Bd-| = {maximal} + {negative}",
            )
        )
        if not ok:
            self._violations.append(
                f"Theorem 2 floor violated: {queries} queries < "
                f"|MTh| + |Bd-| = {floor} — the run cannot have verified "
                "its own border"
            )
        if maximal > 0:
            # Depth-first enumeration charges at most one query per
            # (frequent prefix, extension item) pair plus the ∅ probe,
            # so n·|Th| + 1 ≤ 2^k·n·|MTh| + 1 caps it — the Corollary 13
            # ceiling with one unit of slack for ∅.
            bound = (
                _bounds().corollary13_frequent_sets_bound(rank, n, maximal)
                + 1
            )
            ok = queries <= bound
            self._checks.append(
                Check(
                    name="theorem12",
                    ok=ok,
                    measured=queries,
                    bound=bound,
                    detail=f"Corollary 13: 2^{rank}·{n}·{maximal} + 1 (∅)",
                )
            )
            if not ok:
                self._violations.append(
                    f"Theorem 12 bound violated: {queries} queries > "
                    f"2^k·n·|MTh| + 1 = {bound}"
                )

    # -- reporting -------------------------------------------------------

    def report(self) -> TheoremReport:
        """Conclude: unclosed spans are themselves a violation."""
        violations = list(self._violations)
        for name in self._open_spans:
            violations.append(f"span {name!r} was never closed")
        return TheoremReport(
            ok=not violations,
            violations=tuple(violations),
            checks=tuple(self._checks),
        )


_EVENT_HANDLERS = {
    "oracle.query": TheoremMonitor._on_oracle_query,
    "levelwise.done": TheoremMonitor._on_levelwise_done,
    "dualize.probe": TheoremMonitor._on_dualize_probe,
    "dualize.counterexample": TheoremMonitor._on_dualize_counterexample,
    "dualize.maximal": TheoremMonitor._on_dualize_maximal,
    "dualize.done": TheoremMonitor._on_dualize_done,
    "maxminer.done": TheoremMonitor._on_maxminer_done,
    "eclat.done": TheoremMonitor._on_eclat_done,
    "mmcs.node": TheoremMonitor._on_mmcs_node,
    "mmcs.output": TheoremMonitor._on_mmcs_output,
    "mmcs.done": TheoremMonitor._on_mmcs_done,
}
