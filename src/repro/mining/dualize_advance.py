"""Algorithm 16: Dualize and Advance.

The algorithm discovers one new *maximal* interesting set per iteration,
never enumerating the full theory — which is why it remains feasible
when maximal sets are large and levelwise is hopeless.  Iteration ``i``
holds a partial family ``C_i ⊆ MTh``; it computes the minimal
transversals of the complement family (which, by Theorem 7, form
``Bd-(C_i)``), and probes them:

* an *interesting* transversal is a counterexample — ``C_i`` is not yet
  complete — and is greedily extended to a new maximal set (Step 9);
* if every transversal is uninteresting, ``C_i = MTh`` and the probed
  family is exactly ``Bd-(MTh)`` (Lemma 18), so the negative border
  falls out for free.

Complexity (reproduced by experiment E7): the number of iterations is
``|MTh|`` (+1 final check), each iteration enumerates at most
``|Bd-(MTh)|`` uninteresting sets before hitting a counterexample
(Lemma 20), and total queries are at most
``|MTh| · (|Bd-(MTh)| + rank(MTh) · width)`` (Theorem 21).

Engines: ``"fk"`` enumerates transversals *incrementally* via
Fredman–Khachiyan witnesses — each iteration does work proportional to
the sets actually probed, giving the Corollary 22 sub-exponential bound;
``"berge"`` recomputes the full transversal family per iteration, which
is simpler and exposes the intermediate blow-up of Example 19 (tracked
in ``transversal_family_sizes``); ``"mmcs"`` (PR 9) materializes the
family like Berge but enumerates it with the MMCS branch-and-bound
engine, the practical choice at data-profiling scale.

Convention: the empty set is probed first.  If even ``∅`` is
uninteresting the theory is empty (``MTh = ∅``, ``Bd- = {∅}``).

Execution control: the run goes through :class:`~repro.runtime.run.Run`,
like every budgeted miner.  ``budget=`` bounds distinct queries,
wall-clock time, and the live transversal-family size; the same budget
object is threaded into the Berge multiplication and Fredman–Khachiyan
recursion underneath, so a dualization blow-up trips the same limits as
the probe loop.  Exhaustion (or ``KeyboardInterrupt``) yields a
certified :class:`~repro.runtime.partial.PartialResult` whose
``positive_border`` members are *known true* ``MTh`` elements and whose
verified ``Bd-`` prefix is sound (Theorem 7); a resumable
:class:`~repro.runtime.checkpoint.Checkpoint` is attached, and
``resume=`` reproduces the uninterrupted borders and query accounting
bit-for-bit.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import astuple, dataclass

from repro.core.errors import BudgetExhausted
from repro.core.theory import Theory
from repro.obs.tracer import Tracer
from repro.hypergraph.berge import berge_step
from repro.hypergraph.fredman_khachiyan import find_new_minimal_transversal
from repro.hypergraph.mmcs import mmcs_transversal_masks
from repro.mining.maximalize import greedy_maximalize
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult
from repro.runtime.run import Run
from repro.util.bitset import Universe, rank_sorted

_ENGINES = ("fk", "berge", "mmcs")


@dataclass(frozen=True)
class DualizeAdvanceIteration:
    """Per-iteration trace, the measurement unit of Lemma 20 / E7.

    Attributes:
        enumerated: transversals probed this iteration (queries made on
            the candidate border).
        counterexample: the interesting transversal found, or ``None``
            on the final (complete) iteration.
        new_maximal: the maximal set the counterexample was extended to.
        transversal_family_size: ``|Tr(complement family)|`` when the
            Berge engine materialized it; ``None`` under FK.
    """

    enumerated: int
    counterexample: int | None
    new_maximal: int | None
    transversal_family_size: int | None = None


class _IncrementalDualizer:
    """Maintains ``Tr({R \\ Y : Y ∈ C_i})`` as ``C_i`` grows.

    Both engines exploit that iteration ``i+1`` differs from iteration
    ``i`` by a single new edge (the complement of the newly found
    maximal set):

    * ``berge`` performs one Berge multiplication step per new edge, so
      a whole Dualize-and-Advance run costs one full dualization instead
      of ``|MTh|`` of them;
    * ``fk`` keeps the minimal transversals that still hit the new edge
      (they stay minimal: old edges keep every vertex critical) and asks
      Fredman–Khachiyan only for the genuinely new ones — the
      incremental access pattern of Corollary 22;
    * ``mmcs`` re-enumerates the family per new edge with the MMCS
      branch-and-bound engine (:mod:`repro.hypergraph.mmcs`) — a full
      recompute like ``berge``'s semantics but priced by the PR 9
      crossover benchmark, and the engine of choice at
      data-profiling scale.  It shares ``berge``'s materialized-family
      checkpoint slot.

    ``iterate()`` yields ``(transversal, is_fresh)``; stale survivors
    were already probed (and memoized) in earlier iterations.
    """

    def __init__(
        self,
        universe: Universe,
        engine: str,
        budget: Budget | None = None,
        tracer: "Tracer | None" = None,
    ):
        self.universe = universe
        self.engine = engine
        self.budget = budget
        self.tracer = tracer
        self.complements: list[int] = []
        self._berge_family: list[int] | None = None
        self._fk_known: list[int] = []
        self._dead = False  # a full-universe maximal set was added

    def add_maximal(self, maximal_mask: int) -> None:
        """Grow ``C_i`` by one maximal set.

        A budget raise from the Berge step discards only the scratch
        family; this dualizer is left at its previous consistent state
        (the caller re-folds the edge on resume).
        """
        new_edge = self.universe.full_mask & ~maximal_mask
        if new_edge == 0:
            # Theorem 7 degenerate case: the border becomes empty.
            self._dead = True
            return
        if self.engine == "berge":
            new_family = berge_step(
                self._berge_family, new_edge, budget=self.budget
            )
            self._berge_family = new_family
        elif self.engine == "mmcs":
            self._berge_family = mmcs_transversal_masks(
                [*self.complements, new_edge], budget=self.budget
            )
        else:
            self._fk_known = [
                transversal
                for transversal in self._fk_known
                if transversal & new_edge
            ]
        self.complements.append(new_edge)

    def iterate(self) -> Iterator[tuple[int, bool]]:
        """Yield the current minimal transversals as (mask, is_fresh)."""
        if self._dead:
            return
        if self.engine in ("berge", "mmcs"):
            family = self._berge_family or []
            for transversal in family:
                yield (transversal, True)
            return
        full = self.universe.full_mask
        for survivor in self._fk_known:
            yield (survivor, False)
        while True:
            transversal = find_new_minimal_transversal(
                self.complements,
                self._fk_known,
                full,
                budget=self.budget,
                tracer=self.tracer,
            )
            if transversal is None:
                return
            self._fk_known.append(transversal)
            yield (transversal, True)

    def exclude(self, transversal: int) -> None:
        """Drop an interesting transversal (not part of any border).

        Only meaningful for the FK engine; under Berge the family is
        recomputed from the complements alone.
        """
        if self.engine == "fk":
            self._fk_known = [
                known for known in self._fk_known if known != transversal
            ]

    def family_size(self) -> int | None:
        """``|Tr(D_i)|`` when materialized (berge/mmcs engines)."""
        if self.engine in ("berge", "mmcs"):
            return len(self._berge_family or []) if not self._dead else 0
        return None


def dualize_and_advance(
    universe: Universe,
    predicate: Callable[[int], bool],
    engine: str = "fk",
    shuffle: int | random.Random | None = None,
    incremental: bool = True,
    budget: Budget | None = None,
    resume: "Checkpoint | str | None" = None,
    tracer: "Tracer | None" = None,
) -> "Theory | PartialResult":
    """Run Algorithm 16.

    Args:
        universe: the attribute universe ``R``.
        predicate: the monotone ``q``; wrapped in a
            :class:`~repro.core.oracle.CountingOracle` unless it already
            is one.
        engine: ``"fk"`` (incremental, default), ``"berge"``, or
            ``"mmcs"`` (materialized family via the MMCS
            branch-and-bound enumerator — the data-profiling-scale
            engine; see docs/API.md §17 for the crossover guidance).
        shuffle: optional seed/RNG; when given, the greedy extension
            order is randomized per iteration, turning the deterministic
            advance into the randomized variant of [11].
        incremental: keep the transversal family across iterations
            (default).  ``False`` rebuilds it from scratch every
            iteration — the literal reading of Algorithm 16's Step 4,
            kept for the ablation benchmark.  ``MTh`` and ``Bd-`` are
            the same either way.  Under ``"berge"`` and ``"mmcs"`` the
            rebuild folds the same edges in the same order, so the query
            count is identical too and only time differs.  Under
            ``"fk"`` the rebuilt family comes in discovery order rather
            than survivors first, so a different counterexample may be
            probed first and the query count may differ.
        budget: optional cooperative
            :class:`~repro.runtime.budget.Budget`, checked before every
            border probe and before every greedy maximalization (the
            atomic overshoot unit, at most ``n`` queries); also threaded
            into the Berge/FK dualization underneath.
        resume: a :class:`~repro.runtime.checkpoint.Checkpoint` (or a
            path/JSON text) from an earlier budgeted run with the *same*
            engine/incremental/shuffle configuration; the run continues
            at the exact probe boundary with bit-identical borders and
            query accounting.
        tracer: optional :class:`~repro.obs.tracer.Tracer`.  Emits a
            ``dualize.run`` span, ``dualize.probe`` /
            ``dualize.counterexample`` / ``dualize.maximal`` events, a
            ``dualize.family`` gauge (Berge engine, the Example 19
            blow-up curve), and a ``dualize.done`` summary the
            :class:`~repro.obs.monitor.TheoremMonitor` certifies against
            Theorem 21 and bracket monotonicity.  Per-query events come
            from the underlying :class:`~repro.core.oracle.CountingOracle`.

    Returns:
        A :class:`~repro.core.theory.Theory` with ``MTh``,
        ``Bd-(MTh)``, the distinct query count, and the per-iteration
        trace in ``iterations`` (``|MTh| + 1`` of them when ``MTh`` is
        nonempty; Lemma 20 bounds each one's ``enumerated``);
        ``interesting`` is ``None`` by design, since the algorithm
        never enumerates the theory.  Or a
        :class:`~repro.runtime.partial.PartialResult` when the budget
        ran out first.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    run = Run(
        "dualize_advance",
        universe,
        predicate,
        budget=budget,
        tracer=tracer,
        resume=resume,
        settings={
            "engine": engine,
            "incremental": incremental,
            "shuffled": shuffle is not None,
        },
    )
    oracle = run.oracle
    tracer = run.tracer
    state = run.state
    if state is None:
        rng = None if shuffle is None else _as_rng(shuffle)
        state = {
            "started": False,
            "current_maximal": [],
            "iterations": [],
            "folded": 0,
            "complements": [],
            "dead": False,
            "berge_family": None,
            "fk_known": [],
            "probed": [],
            "enumerated": 0,
            "counted_pending": None,
            "pending": None,
        }
    elif state["shuffled"]:
        rng = random.Random()
        version, internal, gauss_next = state["rng_state"]
        rng.setstate((version, tuple(internal), gauss_next))
    else:
        rng = None
    started = state["started"]
    current_maximal = list(state["current_maximal"])
    iterations = [DualizeAdvanceIteration(*row) for row in state["iterations"]]
    probed = list(state["probed"])
    probed_set = set(probed)
    enumerated = state["enumerated"]
    counted_pending = state["counted_pending"]
    pending = dict(state["pending"]) if state["pending"] else None
    folded = state["folded"]
    dualizer = _IncrementalDualizer(
        universe, engine, budget=budget, tracer=tracer
    )
    dualizer.complements = list(state["complements"])
    dualizer._dead = state["dead"]
    family = state["berge_family"]
    dualizer._berge_family = None if family is None else list(family)
    dualizer._fk_known = list(state["fk_known"])

    def cut(stop: BaseException) -> PartialResult:
        # A non-incremental run saves an empty dualizer: its loop
        # rebuilds the family from ``current_maximal`` on resume.
        saved = dualizer if incremental else _IncrementalDualizer(
            universe, engine
        )
        if not started:
            frontier = [0]
        elif engine == "fk":
            frontier = dualizer._fk_known
        else:
            frontier = [] if dualizer._dead else dualizer._berge_family or []
        # Berge/MMCS materialize Tr of the folded edge prefix, which covers
        # the whole undecided region (every set outside the bracket hits
        # all folded complements, hence contains a family member); FK
        # only holds the transversals enumerated so far — future
        # witnesses are implicit in the recursion.
        return run.cut(
            stop,
            run_span,
            frontier=frontier,
            frontier_complete=engine != "fk" or not started,
            state={
                "engine": engine,
                "incremental": incremental,
                "shuffled": rng is not None,
                "rng_state": None if rng is None else list(rng.getstate()),
                "started": started,
                "current_maximal": current_maximal,
                "iterations": [list(astuple(step)) for step in iterations],
                "folded": folded if incremental else 0,
                "complements": saved.complements,
                "dead": saved._dead,
                "berge_family": saved._berge_family,
                "fk_known": saved._fk_known,
                "probed": probed,
                "enumerated": enumerated,
                "counted_pending": counted_pending,
                "pending": pending,
            },
        )

    with tracer.span(
        "dualize.run",
        engine=engine,
        incremental=incremental,
        resumed=resume is not None,
        n=len(universe),
    ) as run_span:
        try:
            if not started:
                run.check()
                if not oracle(0):
                    # Even the empty sentence is uninteresting: empty theory.
                    if tracer.enabled:
                        tracer.event(
                            "dualize.probe", mask=0, answer=False, fresh=True
                        )
                        tracer.event(
                            "dualize.done",
                            queries=run.queries,
                            maximal=0,
                            negative=1,
                            iterations=1,
                            rank=0,
                            n=len(universe),
                            base_queries=run.base_queries,
                        )
                    return Theory(
                        universe=universe,
                        maximal=(),
                        negative_border=(0,),
                        queries=run.queries,
                        iterations=(
                            DualizeAdvanceIteration(
                                enumerated=1,
                                counterexample=None,
                                new_maximal=None,
                                transversal_family_size=1,
                            ),
                        ),
                    )
                started = True
                pending = {
                    "ce": 0,
                    "enumerated": 1,
                    "family_size": None,
                    "order": _extension_order(universe, rng),
                }

            while True:
                if pending is not None:
                    # Greedy maximalization is the atomic unit: checked
                    # before, never interrupted inside (≤ n queries overshoot).
                    run.check()
                    new_maximal = greedy_maximalize(
                        universe, oracle, pending["ce"], order=pending["order"]
                    )
                    current_maximal.append(new_maximal)
                    dualizer.exclude(pending["ce"])
                    iterations.append(
                        DualizeAdvanceIteration(
                            enumerated=pending["enumerated"],
                            counterexample=pending["ce"],
                            new_maximal=new_maximal,
                            transversal_family_size=pending["family_size"],
                        )
                    )
                    if tracer.enabled:
                        tracer.event(
                            "dualize.maximal",
                            mask=new_maximal,
                            iteration=len(iterations),
                            enumerated=pending["enumerated"],
                        )
                    pending = None
                    probed = []
                    probed_set = set()
                    enumerated = 0
                    counted_pending = None
                if not incremental:
                    dualizer = _IncrementalDualizer(
                        universe,
                        engine,
                        budget=budget,
                        tracer=tracer,
                    )
                    folded = 0
                while folded < len(current_maximal):
                    dualizer.add_maximal(current_maximal[folded])
                    folded += 1

                counterexample: int | None = None
                for transversal, is_fresh in dualizer.iterate():
                    if transversal in probed_set:
                        continue  # probed before an interrupt; answer banked
                    if transversal == counted_pending:
                        counted_pending = None  # counted just before interrupt
                    elif is_fresh:
                        enumerated += 1
                        counted_pending = transversal
                    run.check(family=dualizer.family_size())
                    answer = oracle(transversal)
                    counted_pending = None
                    if tracer.enabled:
                        tracer.event(
                            "dualize.probe",
                            mask=transversal,
                            answer=answer,
                            fresh=is_fresh,
                        )
                    if answer:
                        counterexample = transversal
                        break
                    probed.append(transversal)
                    probed_set.add(transversal)
                family_size = dualizer.family_size()
                if tracer.enabled and family_size is not None:
                    tracer.gauge("dualize.family", family_size)
                if counterexample is None:
                    iterations.append(
                        DualizeAdvanceIteration(
                            enumerated=enumerated,
                            counterexample=None,
                            new_maximal=None,
                            transversal_family_size=family_size,
                        )
                    )
                    negative_border = rank_sorted(probed)
                    result = Theory(
                        universe=universe,
                        maximal=tuple(rank_sorted(current_maximal)),
                        negative_border=tuple(negative_border),
                        queries=run.queries,
                        iterations=tuple(iterations),
                    )
                    if tracer.enabled:
                        tracer.event(
                            "dualize.done",
                            queries=result.queries,
                            maximal=len(result.maximal),
                            negative=len(result.negative_border),
                            iterations=len(result.iterations),
                            rank=result.rank(),
                            n=len(universe),
                            base_queries=run.base_queries,
                        )
                    return result
                if tracer.enabled:
                    tracer.event(
                        "dualize.counterexample",
                        mask=counterexample,
                        iteration=len(iterations),
                    )
                pending = {
                    "ce": counterexample,
                    "enumerated": enumerated,
                    "family_size": family_size,
                    "order": _extension_order(universe, rng),
                }
        except (BudgetExhausted, KeyboardInterrupt) as stop:
            return cut(stop)


def _extension_order(
    universe: Universe, rng: random.Random | None
) -> list[int] | None:
    if rng is None:
        return None
    order = list(range(len(universe)))
    rng.shuffle(order)
    return order


def _as_rng(seed: int | random.Random) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)
