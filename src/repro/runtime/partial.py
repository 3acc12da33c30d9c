"""Anytime certified partial results (Theorem 2 / Corollary 4 semantics).

When an engine's budget runs out it has, by construction, a *sound
bracket* on the unknown theory: every sentence the oracle answered
``True`` certifies its whole downset interesting (monotonicity of
``q``), every ``False`` answer certifies its whole upset uninteresting,
and the only undecided region lies above the open frontier.  That is
exactly the information content Theorem 2 attributes to a border and
Corollary 4 to a prefix of ``Is-interesting`` answers — a partial run
is an unfinished verification transcript, and :meth:`PartialResult.certificate`
re-validates it the same way :func:`repro.core.verification.verify_maxth`
validates a complete one.

The bracket, concretely:

* ``positive_border`` — ``Bd+`` of everything confirmed interesting;
  the true ``MTh`` dominates it (every member is interesting; for
  Dualize and Advance every member from a completed iteration is
  already *known maximal*, i.e. a true ``MTh`` element — only an
  in-flight counterexample may still be mid-maximalization).
* ``negative`` — the verified ``Bd-`` prefix: sentences answered
  ``False`` all of whose immediate generalizations are certified
  interesting.  These are genuine members of ``Bd-(Th)``.
* ``frontier`` — the open candidates.  With ``frontier_kind="lower"``
  (and ``frontier_complete=True``) every undecided sentence is a
  specialization of some frontier element *or* of a positive-border
  element — the open region sits entirely above the known bracket, so
  the unexplored part of ``Bd-(Th)`` is reachable only through the
  frontier.  With ``"upper"`` (MaxMiner subtree envelopes) every
  undiscovered maximal set is a subset of some frontier envelope.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.util.antichain import DominanceIndex, maximize_masks, minimize_masks
from repro.util.bitset import Universe, rank_sorted

__all__ = ["PartialResult", "Certificate", "PartialDualization", "build_partial"]


@dataclass(frozen=True)
class Certificate:
    """Outcome of re-validating a partial result's bracket.

    Attributes:
        ok: the bracket is internally consistent (and, when a live
            predicate was supplied, agrees with it on the border).
        violations: human-readable descriptions of every inconsistency.
        checked_positive: ``|Bd+|`` entries validated.
        checked_negative: verified ``Bd-`` prefix entries validated.
        requeried: live predicate re-evaluations performed (0 when
            validating against history only).
    """

    ok: bool
    violations: tuple[str, ...]
    checked_positive: int
    checked_negative: int
    requeried: int = 0

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PartialResult:
    """The certified state of an interrupted engine run.

    Attributes:
        universe: the attribute universe.
        algorithm: which engine produced this (``"levelwise"``,
            ``"dualize_advance"``, ``"maxminer"``, ``"eclat"``).
        reason: why the run stopped — ``"queries"``, ``"timeout"``,
            ``"family"``, or ``"interrupt"``.
        interesting: sentences confirmed interesting so far (answered
            ``True``), sorted by (cardinality, value).
        positive_border: ``Bd+`` of :attr:`interesting` — the certified
            lower bracket of ``MTh``.
        negative: the verified ``Bd-(Th)`` prefix (see module docs).
        frontier: the open candidates; semantics per
            :attr:`frontier_kind`.
        frontier_kind: ``"lower"`` or ``"upper"`` (see module docs).
        frontier_complete: ``False`` when the engine could not
            materialize the full frontier (e.g. the FK engine's future
            witnesses are implicit in the recursion, not enumerated).
        queries: distinct oracle evaluations charged to the run so far.
        total_calls: oracle invocations including memo hits.
        evaluations: underlying predicate evaluations.
        elapsed: wall-clock seconds consumed, *cumulative across resume
            segments*: each checkpoint banks the seconds spent so far
            and a resumed run adds only its own segment, so the time the
            process sat interrupted between segments is never billed.
        history: every (sentence, answer) pair known to the oracle —
            the transcript the certificate validates against.
        checkpoint: a resumable :class:`~repro.runtime.checkpoint.Checkpoint`
            when the engine supports resume, else ``None``.
    """

    universe: Universe
    algorithm: str
    reason: str
    interesting: tuple[int, ...]
    positive_border: tuple[int, ...]
    negative: tuple[int, ...]
    frontier: tuple[int, ...]
    frontier_kind: str = "lower"
    frontier_complete: bool = True
    queries: int = 0
    total_calls: int = field(default=0, compare=False)
    evaluations: int = field(default=0, compare=False)
    elapsed: float = field(default=0.0, compare=False)
    history: Mapping[int, bool] = field(default_factory=dict, compare=False)
    checkpoint: object | None = field(default=None, compare=False)

    def is_complete(self) -> bool:
        """Always ``False`` — partials are distinguishable from theories."""
        return False

    def border_size(self) -> int:
        """``|Bd+ so far| + |verified Bd- prefix|``."""
        return len(self.positive_border) + len(self.negative)

    def decided(self, mask: int) -> bool | None:
        """What the bracket certifies about ``mask``.

        ``True`` — certified interesting (below a confirmed interesting
        set); ``False`` — certified uninteresting (above a confirmed
        uninteresting set); ``None`` — undecided, in the open region.
        """
        for maximal in self.positive_border:
            if mask & maximal == mask:
                return True
        for uninteresting, answer in self.history.items():
            if not answer and mask & uninteresting == uninteresting:
                return False
        return None

    def certificate(
        self, predicate: Callable[[int], bool] | None = None
    ) -> Certificate:
        """Re-validate the bracket (Corollary 4 semantics).

        Against the recorded oracle history the checks are:

        1. every ``Bd+`` member was answered ``True`` and every verified
           ``Bd-`` member ``False``;
        2. ``positive_border`` is exactly ``Bd+`` of the confirmed
           interesting family (an antichain dominating it);
        3. every verified ``Bd-`` member has *all* immediate
           generalizations certified interesting — i.e. it really is a
           ``Bd-(Th)`` element, not merely uninteresting;
        4. the transcript is monotone-consistent: no ``False`` answer
           lies below a confirmed interesting set;
        5. a ``"lower"`` frontier is disjoint from the decided region.

        Args:
            predicate: optional live oracle; when given, the bracket is
                additionally re-queried — ``|Bd+| + |Bd-prefix|``
                evaluations, the Corollary 4 price of verifying exactly
                what the partial result claims.
        """
        violations: list[str] = []
        history = self.history
        # Re-maximize before indexing: domination queries only need the
        # maximal members, and the claimed border is not trusted to be
        # an antichain (check 2 below flags that independently).
        index = DominanceIndex(maximize_masks(self.positive_border))

        for mask in self.positive_border:
            if history.get(mask) is not True:
                violations.append(
                    f"Bd+ member {mask:#x} lacks a True answer in history"
                )
        recomputed = rank_sorted(
            set(
                maximize_masks(
                    list(self.interesting) + list(self.positive_border)
                )
            )
        )
        if recomputed != rank_sorted(set(self.positive_border)):
            violations.append(
                "positive_border is not the maximal antichain of the "
                "confirmed interesting family"
            )
            dominates = index.dominates
        else:
            # The border covers every confirmed set, so a confirmed set
            # is dominated without a scan.
            dominates = _dominance_test(self.interesting, index)
        for mask in self.interesting:
            if history.get(mask) is not True:
                violations.append(
                    f"interesting mask {mask:#x} lacks a True answer"
                )

        for mask in self.negative:
            if history.get(mask) is not False:
                violations.append(
                    f"Bd- member {mask:#x} lacks a False answer in history"
                )
            remaining = mask
            while remaining:
                low = remaining & -remaining
                parent = mask & ~low
                if not dominates(parent):
                    violations.append(
                        f"Bd- member {mask:#x} has an uncertified "
                        f"generalization {parent:#x}"
                    )
                remaining ^= low

        for mask, answer in history.items():
            if not answer and dominates(mask):
                violations.append(
                    f"monotonicity violation: {mask:#x} answered False "
                    "below a confirmed interesting set"
                )

        if self.frontier_kind == "lower":
            for mask in self.frontier:
                if mask in history:
                    violations.append(
                        f"frontier element {mask:#x} is already decided"
                    )

        requeried = 0
        if predicate is not None:
            for mask in self.positive_border:
                requeried += 1
                if not predicate(mask):
                    violations.append(
                        f"live oracle contradicts Bd+ member {mask:#x}"
                    )
            for mask in self.negative:
                requeried += 1
                if predicate(mask):
                    violations.append(
                        f"live oracle contradicts Bd- member {mask:#x}"
                    )

        return Certificate(
            ok=not violations,
            violations=tuple(violations),
            checked_positive=len(self.positive_border),
            checked_negative=len(self.negative),
            requeried=requeried,
        )

    def __repr__(self) -> str:
        return (
            f"PartialResult({self.algorithm}, reason={self.reason!r}, "
            f"|Bd+|={len(self.positive_border)}, |Bd-|={len(self.negative)}, "
            f"frontier={len(self.frontier)}"
            f"{'' if self.frontier_complete else '+'}, "
            f"queries={self.queries})"
        )


@dataclass(frozen=True)
class PartialDualization:
    """Certified state of an interrupted transversal computation.

    Berge multiplication folds edges in one at a time, so on exhaustion
    the live family is exactly ``Tr`` of the processed edge prefix — a
    sound *under-approximation* of the hitting requirement: every true
    minimal transversal of the full family contains some member of
    ``family``.  The FK enumerator instead reports the transversals
    found so far: each is a genuine member of ``Tr`` of the *full*
    family (``processed_edges`` is then all edges and
    ``remaining_edges`` is empty), but the enumeration is incomplete.

    Attributes:
        reason: budget dimension that tripped.
        family: minimal transversals of the processed edges (Berge) or
            the enumerated prefix of ``Tr`` (FK).
        processed_edges: the edge prefix folded in so far.
        remaining_edges: edges not yet multiplied.
    """

    reason: str
    family: tuple[int, ...]
    processed_edges: tuple[int, ...]
    remaining_edges: tuple[int, ...]

    def is_complete(self) -> bool:
        return False


def _dominance_test(
    confirmed: Iterable[int], index: DominanceIndex
) -> Callable[[int], bool]:
    """``mask ↦ mask`` is certified interesting, for an ``index`` over
    a family that dominates every ``confirmed`` mask: a confirmed mask
    answers from a set lookup, any other from the index."""
    confirmed = frozenset(confirmed)

    def dominates(mask: int) -> bool:
        return mask in confirmed or index.dominates(mask)

    return dominates


def build_partial(
    universe: Universe,
    algorithm: str,
    reason: str,
    history: Mapping[int, bool],
    *,
    interesting: Iterable[int] | None = None,
    negative_candidates: Iterable[int] | None = None,
    frontier: Iterable[int] = (),
    frontier_kind: str = "lower",
    frontier_complete: bool = True,
    queries: int = 0,
    total_calls: int = 0,
    evaluations: int = 0,
    elapsed: float = 0.0,
    checkpoint: object | None = None,
) -> PartialResult:
    """Assemble a :class:`PartialResult` from raw engine state.

    Computes the derived bracket pieces uniformly for every engine:
    ``positive_border`` is the maximal antichain of the confirmed
    interesting sets; the verified ``Bd-`` prefix keeps only those
    ``False``-answered sentences whose every immediate generalization is
    certified interesting (minimized, so it is an antichain); a
    ``"lower"`` frontier is pruned of already-decided sentences.

    Args:
        interesting: confirmed-interesting masks; defaults to every
            ``True`` entry of ``history``.
        negative_candidates: ``False``-answered masks to consider for
            the verified ``Bd-`` prefix; defaults to every ``False``
            entry of ``history``.
    """
    if interesting is None:
        interesting = [mask for mask, answer in history.items() if answer]
    else:
        interesting = list(interesting)
    if negative_candidates is None:
        negative_candidates = [
            mask for mask, answer in history.items() if not answer
        ]
    else:
        negative_candidates = list(negative_candidates)

    positive = maximize_masks(interesting)
    dominates = _dominance_test(interesting, DominanceIndex(positive))

    def _is_border_member(mask: int) -> bool:
        if mask == 0:
            return True  # ∅ has no generalizations
        remaining = mask
        while remaining:
            low = remaining & -remaining
            if not dominates(mask & ~low):
                return False
            remaining ^= low
        return True

    verified_negative = minimize_masks(
        mask for mask in negative_candidates if _is_border_member(mask)
    )
    if frontier_kind == "lower":
        frontier = [mask for mask in frontier if mask not in history]

    return PartialResult(
        universe=universe,
        algorithm=algorithm,
        reason=reason,
        interesting=tuple(rank_sorted(set(interesting))),
        positive_border=tuple(rank_sorted(set(positive))),
        negative=tuple(rank_sorted(set(verified_negative))),
        frontier=tuple(rank_sorted(set(frontier))),
        frontier_kind=frontier_kind,
        frontier_complete=frontier_complete,
        queries=queries,
        total_calls=total_calls,
        evaluations=evaluations,
        elapsed=elapsed,
        history=dict(history),
        checkpoint=checkpoint,
    )
