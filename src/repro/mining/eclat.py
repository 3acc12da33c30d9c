"""Depth-first vertical mining (Eclat/dEclat) over equivalence classes.

Zaki-style set-enumeration mining, the depth-first counterpart of the
levelwise walk: the Rymon tree over the item universe is traversed one
*equivalence class* at a time — all frequent extensions of a common
prefix ``P`` — and every class carries a memoized *cover* per member
from which each child support is one big-int operation:

* **tidset form** — the cover of member ``x`` is ``t(P∪{x})``, the
  bitmask of supporting transactions; a child's tidset is the AND of two
  sibling covers and its support one popcount.
* **diffset form (dEclat)** — the cover is ``d(P∪{x}|P) = t(P)∖t(P∪{x})``,
  the rows *lost* by adding ``x``; a child's diffset is
  ``d_y ∖ d_x = d_y & ~d_x`` and its support ``supp(x) − |d|``.
  Diffsets shrink geometrically with depth on dense data, so each class
  switches from tidsets to diffsets as soon as the diffsets are smaller
  in total — decided arithmetically from the supports alone, before any
  conversion work — and never switches back.

On the ``"roaring"`` backend covers are compressed
:class:`~repro.util.roaring.RoaringBitmap` containers and the switch
compares *container byte sizes* instead of row counts
(:func:`_expand_roaring`): a run-compressed tidset over a dense block
can be far smaller than its diffset's row count suggests, so the
byte-size rule reflects the memory the branch actually holds.  The
heuristic only picks a representation — masks, supports, evaluation
order, and hence theory/borders/accounting stay bit-identical to the
int backends (property-tested).

The levelwise engine re-derives every support from raw column bitmaps
(an ``|X|``-way AND per candidate); here each support reuses the
parent's intersection, which is where the end-to-end speedup measured in
``BENCH_PR5.json`` comes from.

**Same answers, certified.**  The traversal evaluates a superset of
``Th ∪ Bd-(Th)`` (every subtree is rooted at a frequent prefix, so each
evaluated mask decomposes as *frequent prefix + one item*), and every
true ``Bd-`` member is reached: its parent chain is frequent, so the
class containing it is built.  Theory, ``Bd+``, and ``Bd-`` therefore
equal :func:`repro.mining.levelwise.levelwise`'s bit for bit
(property-tested in ``tests/test_mining_eclat.py``); ``Bd-`` is
recovered from the rejected masks with the shared
:func:`repro.util.prefix.parents_all_in` check.  Query accounting obeys
``|MTh| + |Bd-|  ≤  queries  ≤  n·|Th| + 1  ≤  2^k·n·|MTh| + 1`` —
the Theorem 2 floor and the Corollary 13 ceiling (with one extra for the
``∅`` probe) — which :class:`~repro.obs.monitor.TheoremMonitor` checks
on every traced run via the ``eclat.done`` event.

Budgets are cooperative at evaluation granularity: the query limit is
checked before every support computation, so a budgeted run stops at
exactly its limit and returns a certified
:class:`~repro.runtime.partial.PartialResult` whose ``Bd+`` prefix and
verified ``Bd-`` prefix are genuine, with a *complete* lower frontier
(every undecided itemset extends a frontier element).  ``workers=N``
ships root equivalence classes to a
:class:`~repro.parallel.pool.WorkerPool`
(:func:`repro.parallel.eclat.eclat_parallel`) with bit-identical
results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.errors import BudgetExhausted
from repro.datasets.transactions import TransactionDatabase
from repro.obs.tracer import Tracer, as_tracer
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult, build_partial
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.prefix import parents_all_in

__all__ = ["EclatResult", "eclat"]


@dataclass(frozen=True)
class EclatResult:
    """Output of a depth-first vertical mining run.

    Attributes:
        universe: the item universe.
        interesting: the full theory ``Th`` (all frequent masks,
            including ``∅``), sorted by (cardinality, value).
        maximal: ``MTh`` — identical to every other engine's.
        negative_border: ``Bd-(Th)`` — the rejected masks whose every
            immediate generalization is frequent; identical to
            levelwise's.
        queries: distinct support evaluations.  Depth-first enumeration
            evaluates a superset of ``Th ∪ Bd-``, so this is at least
            levelwise's Theorem 10 count and at most ``n·|Th| + 1``.
        min_support: the absolute threshold used.
        supports: support count of every frequent mask (``∅`` maps to
            the database size) — the same table Apriori reports.
        nodes: equivalence-class nodes expanded.
        diffset_nodes: nodes whose covers were computed with diffset
            arithmetic (the dEclat path).
    """

    universe: Universe
    interesting: tuple[int, ...]
    maximal: tuple[int, ...]
    negative_border: tuple[int, ...]
    queries: int
    min_support: int
    supports: dict[int, int] = field(default_factory=dict, compare=False)
    nodes: int = field(default=0, compare=False)
    diffset_nodes: int = field(default=0, compare=False)

    def theory_size(self) -> int:
        """``|Th|``."""
        return len(self.interesting)

    def border_size(self) -> int:
        """``|Bd(Th)|`` — the Theorem 2 lower bound on any miner."""
        return len(self.maximal) + len(self.negative_border)


def _expand(
    prefix: int,
    is_diff: bool,
    parent_supp: int,
    parent_cover: int,
    exts: list[tuple[int, int, int]],
    threshold: int,
    supports: dict[int, int],
    rejected: list[int],
) -> tuple[list[tuple[int, int, int]], bool]:
    """Evaluate one equivalence-class node, budget/trace-free (hot kernel).

    ``exts`` are sibling members ``(bit, supp, cover)`` of the parent
    class in the parent's representation (``is_diff``); the node's own
    prefix already includes the member being expanded, whose support and
    cover are ``parent_supp`` / ``parent_cover``.  Frequent extensions
    are recorded in ``supports`` and returned as the new class members;
    infrequent masks go to ``rejected``.  A tidset class converts to
    diffsets when the diffsets are smaller in total — decided from the
    supports alone (``|d| = supp(parent) − supp(child)``), then realized
    with one AND-NOT per member.
    """
    members: list[tuple[int, int, int]] = []
    if is_diff:
        not_parent = ~parent_cover
        for bit, _, cover in exts:
            child_cover = cover & not_parent
            supp = parent_supp - child_cover.bit_count()
            mask = prefix | bit
            if supp >= threshold:
                supports[mask] = supp
                members.append((bit, supp, child_cover))
            else:
                rejected.append(mask)
        return members, True
    tid_total = 0
    diff_total = 0
    for bit, _, cover in exts:
        child_cover = parent_cover & cover
        supp = child_cover.bit_count()
        mask = prefix | bit
        if supp >= threshold:
            supports[mask] = supp
            members.append((bit, supp, child_cover))
            tid_total += supp
            diff_total += parent_supp - supp
        else:
            rejected.append(mask)
    if diff_total < tid_total and len(members) > 1:
        members = [
            (bit, supp, parent_cover & ~cover)
            for bit, supp, cover in members
        ]
        return members, True
    return members, False


#: Estimated bytes per row of a would-be diffset in container form
#: (an array container stores one u16 per row).  The roaring
#: tidset→diffset switch compares real tidset container bytes against
#: this estimate — both sides in bytes, unlike the int backends' row
#: counts — so branches convert exactly when the conversion shrinks the
#: memoized covers.
_DIFF_BYTES_PER_ROW = 2


def _expand_roaring(
    prefix: int,
    is_diff: bool,
    parent_supp: int,
    parent_cover,
    exts: list,
    threshold: int,
    supports: dict[int, int],
    rejected: list[int],
) -> tuple[list, bool]:
    """:func:`_expand` over compressed covers (hot kernel twin).

    Identical traversal, supports, and rejection order — only the cover
    arithmetic (`&`/`andnot` on :class:`RoaringBitmap`) and the switch
    currency (container bytes vs rows) differ, so results stay
    bit-identical to the int backends.
    """
    members: list = []
    if is_diff:
        for bit, _, cover in exts:
            child_cover = cover.andnot(parent_cover)
            supp = parent_supp - child_cover.bit_count()
            mask = prefix | bit
            if supp >= threshold:
                supports[mask] = supp
                members.append((bit, supp, child_cover))
            else:
                rejected.append(mask)
        return members, True
    tid_total = 0
    diff_total = 0
    for bit, _, cover in exts:
        child_cover = parent_cover & cover
        supp = child_cover.bit_count()
        mask = prefix | bit
        if supp >= threshold:
            supports[mask] = supp
            members.append((bit, supp, child_cover))
            tid_total += child_cover.byte_size()
            diff_total += _DIFF_BYTES_PER_ROW * (parent_supp - supp)
        else:
            rejected.append(mask)
    if diff_total < tid_total and len(members) > 1:
        members = [
            (bit, supp, parent_cover.andnot(cover))
            for bit, supp, cover in members
        ]
        return members, True
    return members, False


def _expand_for(cover):
    """The expand kernel matching a cover's representation."""
    return _expand if type(cover) is int else _expand_roaring


def _mine_subtree(
    prefix: int,
    is_diff: bool,
    parent_supp: int,
    parent_cover: int,
    exts: list[tuple[int, int, int]],
    threshold: int,
    supports: dict[int, int],
    rejected: list[int],
) -> tuple[int, int]:
    """DFS one whole equivalence-class subtree (budget/trace-free).

    The shared hot path: the serial engine runs the entire tree through
    it when no budget and no tracer are attached (``prefix=0`` with the
    full-database cover makes the root class an ordinary node), and each
    :mod:`repro.parallel.eclat` worker runs one root subtree through it.
    Returns ``(nodes, diffset_nodes)``; supports/rejected accumulate in
    the caller's containers in deterministic DFS order.
    """
    nodes = 1
    diffset_nodes = 1 if is_diff else 0
    expand = _expand_for(parent_cover)
    members, is_diff = expand(
        prefix, is_diff, parent_supp, parent_cover, exts,
        threshold, supports, rejected,
    )
    if len(members) < 2:
        return nodes, diffset_nodes
    stack = [[prefix, is_diff, members, 0]]
    while stack:
        frame = stack[-1]
        index = frame[3]
        frame_members = frame[2]
        if index >= len(frame_members) - 1:
            # The last member has no untried siblings to its right.
            stack.pop()
            continue
        frame[3] = index + 1
        bit, supp, cover = frame_members[index]
        child_prefix = frame[0] | bit
        nodes += 1
        if frame[1]:
            diffset_nodes += 1
        child_members, child_diff = expand(
            child_prefix, frame[1], supp, cover,
            frame_members[index + 1 :], threshold, supports, rejected,
        )
        if len(child_members) > 1:
            stack.append([child_prefix, child_diff, child_members, 0])
    return nodes, diffset_nodes


def _maximal_from_supports(supports: dict[int, int]) -> list[int]:
    """Extract the positive border from a complete support closure.

    ``supports`` holds *every* frequent itemset, so monotonicity reduces
    maximality to a local test: a set is non-maximal iff some one-item
    extension is frequent, i.e. iff it is an immediate parent of another
    frequent set.  Marking the ``rank(M)`` parents of each member costs
    ``Σ|M|`` set inserts total — far below both the ``O(|Th|·n)``
    extension probing this replaces and the generic antichain
    maximization (:func:`~repro.util.antichain.maximize_masks`) the
    other engines run, which is why the vertical engine skips the
    shared post-processing pass entirely.
    """
    non_maximal: set[int] = set()
    add = non_maximal.add
    for mask in supports:
        remaining = mask
        while remaining:
            low = remaining & -remaining
            add(mask ^ low)
            remaining ^= low
    return [mask for mask in supports if mask not in non_maximal]


def eclat(
    database: TransactionDatabase,
    min_support: int | float,
    *,
    budget: "Budget | None" = None,
    on_exhaust: str = "return",
    tracer: "Tracer | None" = None,
    workers: int | None = None,
) -> "EclatResult | PartialResult":
    """Mine all frequent itemsets depth-first with memoized covers.

    Args:
        database: the 0/1 relation; its vertical column bitmaps
            (:meth:`~repro.datasets.transactions.TransactionDatabase.tidsets_view`)
            seed the root equivalence class.
        min_support: absolute row count (``int``) or relative frequency
            in ``(0, 1]`` (``float``), converted with ceiling semantics.
        budget: optional cooperative
            :class:`~repro.runtime.budget.Budget`, checked before every
            support evaluation (queries/timeout) and at node entry
            (family = the candidate tail length), so the query limit is
            hit exactly.  On exhaustion the
            :class:`~repro.runtime.partial.PartialResult` carries a
            *complete* ``"lower"`` frontier: the unevaluated extensions
            of the interrupted node, the pairwise specializations of its
            confirmed members, and the pairwise specializations of every
            stack frame's unexpanded members — every undecided itemset
            extends one of them.  No checkpoint (like MaxMiner, the tree
            is cheap to replay; resume by re-running).
        on_exhaust: ``"return"`` (default) returns the partial result;
            ``"raise"`` raises
            :class:`~repro.core.errors.BudgetExhausted` with it
            attached.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; emits an
            ``eclat.run`` span, one ``oracle.query`` event per support
            evaluation (``charged=True`` — eclat never re-evaluates a
            mask, so distinct = total), per-class ``eclat.node`` events,
            and a terminal ``eclat.done`` accounting event that
            :class:`~repro.obs.monitor.TheoremMonitor` certifies against
            the Theorem 2 floor and the Corollary 13 ceiling.  Tracing
            never changes the result (property-tested).
        workers: ``None`` or ``<= 1`` runs serially; larger values fan
            subtree tasks across a
            :class:`~repro.parallel.pool.WorkerPool` with dynamic work
            stealing via :func:`repro.parallel.eclat.eclat_parallel`,
            with bit-identical output.

    Returns:
        An :class:`EclatResult` whose theory and borders equal
        :func:`~repro.mining.levelwise.levelwise`'s and whose support
        table equals :func:`~repro.mining.apriori.apriori`'s, or a
        certified :class:`~repro.runtime.partial.PartialResult`.
    """
    if on_exhaust not in ("return", "raise"):
        raise ValueError(
            f"on_exhaust must be 'return' or 'raise', got {on_exhaust!r}"
        )
    threshold = (
        database.absolute_support(min_support)
        if isinstance(min_support, float)
        else min_support
    )
    if threshold < 0:
        raise ValueError("min_support must be non-negative")
    if workers is not None and workers > 1:
        from repro.parallel.eclat import eclat_parallel

        return eclat_parallel(
            database,
            threshold,
            workers=workers,
            budget=budget,
            on_exhaust=on_exhaust,
            tracer=tracer,
        )
    tracer = as_tracer(tracer)
    universe = database.universe
    n = len(universe)
    n_rows = database.n_transactions
    columns = database.tidsets_view()
    full_cover = database.full_tidset

    supports: dict[int, int] = {}
    rejected: list[int] = []
    history: dict[int, bool] = {}
    queries = 0
    nodes = 0
    diffset_nodes = 0
    # The node currently being evaluated, for frontier construction:
    # [prefix, confirmed members, candidate exts, next ext index].
    # ∅ itself is modeled as prefix 0 with the single "extension" bit 0.
    pending: list = [0, [], ((0, 0, 0),), 0]
    # DFS stack of [prefix, is_diff, members, next member index].
    stack: list[list] = []
    hot_path = False
    run_t0 = time.monotonic()
    if budget is not None:
        budget.begin()

    def make_partial(reason: str, complete: bool = True) -> PartialResult:
        # Lower frontier, complete by construction: any undecided mask
        # either extends a not-yet-evaluated extension of the pending
        # node, lies in a future subtree of the pending node (hence
        # extends a pairwise specialization of its confirmed members),
        # or lies in a future subtree of some stack frame (hence extends
        # a pairwise specialization of that frame's unexpanded members);
        # everything else is decided by the history under monotonicity.
        frontier: list[int] = []
        p_prefix, p_members, p_exts, p_index = pending
        for position in range(p_index, len(p_exts)):
            frontier.append(p_prefix | p_exts[position][0])
        bits = [member[0] for member in p_members]
        for a in range(len(bits)):
            for b in range(a + 1, len(bits)):
                frontier.append(p_prefix | bits[a] | bits[b])
        for f_prefix, _, f_members, f_index in stack:
            f_bits = [member[0] for member in f_members]
            for a in range(f_index, len(f_bits)):
                for b in range(a + 1, len(f_bits)):
                    frontier.append(f_prefix | f_bits[a] | f_bits[b])
        return build_partial(
            universe,
            "eclat",
            reason,
            history,
            interesting=list(supports),
            negative_candidates=rejected,
            frontier=frontier,
            frontier_kind="lower",
            frontier_complete=complete,
            queries=queries,
            total_calls=queries,
            evaluations=queries,
            elapsed=time.monotonic() - run_t0,
        )

    def expand_node(
        prefix: int,
        is_diff: bool,
        parent_supp: int,
        parent_cover: int,
        exts: list[tuple[int, int, int]],
    ) -> tuple[list[tuple[int, int, int]], bool]:
        """Instrumented twin of :func:`_expand` (budget + trace).

        Handles both cover representations: big ints and compressed
        :class:`RoaringBitmap` covers, applying each one's switch rule
        (row counts vs container bytes) exactly as the hot kernels do.
        """
        nonlocal queries, nodes, diffset_nodes
        is_roaring = type(parent_cover) is not int
        members: list[tuple[int, int, int]] = []
        pending[0] = prefix
        pending[1] = members
        pending[2] = exts
        pending[3] = 0
        nodes += 1
        if is_diff:
            diffset_nodes += 1
        if tracer.enabled:
            tracer.event(
                "eclat.node",
                prefix=prefix,
                tail=len(exts),
                kind="diff" if is_diff else "tid",
            )
        if budget is not None:
            budget.check(queries=queries, family=len(exts))
        tid_total = 0
        diff_total = 0
        for position, (bit, _, cover) in enumerate(exts):
            if budget is not None:
                budget.check(queries=queries)
            if is_diff:
                if is_roaring:
                    child_cover = cover.andnot(parent_cover)
                else:
                    child_cover = cover & ~parent_cover
                supp = parent_supp - popcount(child_cover)
            else:
                child_cover = parent_cover & cover
                supp = popcount(child_cover)
            mask = prefix | bit
            answer = supp >= threshold
            queries += 1
            history[mask] = answer
            if tracer.enabled:
                tracer.event(
                    "oracle.query", mask=mask, answer=answer, charged=True
                )
            if answer:
                supports[mask] = supp
                members.append((bit, supp, child_cover))
                if is_roaring:
                    tid_total += child_cover.byte_size()
                    diff_total += _DIFF_BYTES_PER_ROW * (parent_supp - supp)
                else:
                    tid_total += supp
                    diff_total += parent_supp - supp
            else:
                rejected.append(mask)
            pending[3] = position + 1
        if not is_diff and diff_total < tid_total and len(members) > 1:
            if is_roaring:
                members = [
                    (bit, supp, parent_cover.andnot(cover))
                    for bit, supp, cover in members
                ]
            else:
                members = [
                    (bit, supp, parent_cover & ~cover)
                    for bit, supp, cover in members
                ]
            is_diff = True
        return members, is_diff

    def finish_partial(
        reason: str, run_span, complete: bool = True
    ) -> PartialResult:
        partial = make_partial(reason, complete)
        if tracer.enabled:
            run_span.note(outcome="partial", reason=reason)
        if on_exhaust == "raise":
            raise BudgetExhausted(reason, partial=partial)
        return partial

    with tracer.span("eclat.run", n=n, threshold=threshold) as run_span:
        try:
            # ∅ first, like every other engine (one query; if even the
            # empty set is infrequent the theory is empty).
            if budget is not None:
                budget.check(queries=0)
            empty_answer = n_rows >= threshold
            queries = 1
            history[0] = empty_answer
            pending[3] = 1
            if tracer.enabled:
                tracer.event(
                    "oracle.query", mask=0, answer=empty_answer, charged=True
                )
            if not empty_answer:
                rejected.append(0)
            else:
                supports[0] = n_rows
                root_exts = [
                    (1 << item, 0, columns[item]) for item in range(n)
                ]
                if budget is None and not tracer.enabled:
                    # Whole tree through the shared hot kernel: the root
                    # class is an ordinary tidset node whose parent is ∅
                    # (cover = every row, so "& column" is the column).
                    hot_path = True
                    nodes, diffset_nodes = _mine_subtree(
                        0, False, n_rows, full_cover, root_exts,
                        threshold, supports, rejected,
                    )
                    queries += len(supports) - 1 + len(rejected)
                else:
                    members, is_diff = expand_node(
                        0, False, n_rows, full_cover, root_exts
                    )
                    if len(members) > 1:
                        stack.append([0, is_diff, members, 0])
                    while stack:
                        frame = stack[-1]
                        index = frame[3]
                        frame_members = frame[2]
                        if index >= len(frame_members) - 1:
                            stack.pop()
                            continue
                        frame[3] = index + 1
                        bit, supp, cover = frame_members[index]
                        child_prefix = frame[0] | bit
                        child_members, child_diff = expand_node(
                            child_prefix,
                            frame[1],
                            supp,
                            cover,
                            frame_members[index + 1 :],
                        )
                        if len(child_members) > 1:
                            stack.append(
                                [child_prefix, child_diff, child_members, 0]
                            )
        except BudgetExhausted as exhausted:
            return finish_partial(exhausted.reason, run_span)
        except KeyboardInterrupt:
            if hot_path:
                # The hot kernel keeps its DFS state internal, so the
                # bracket is still certifiable (everything answered so
                # far is recorded) but the open frontier is not
                # materializable — flagged via frontier_complete=False.
                for mask in supports:
                    if mask:
                        history[mask] = True
                for mask in rejected:
                    history[mask] = False
                queries = len(history)
                return finish_partial("interrupt", run_span, complete=False)
            return finish_partial("interrupt", run_span)

        negative = [
            mask for mask in rejected if parents_all_in(mask, supports)
        ]
        sorted_maximal = tuple(rank_sorted(_maximal_from_supports(supports)))
        if tracer.enabled:
            rank = max((popcount(m) for m in sorted_maximal), default=0)
            run_span.note(outcome="complete", queries=queries)
            tracer.event(
                "eclat.done",
                queries=queries,
                theory=len(supports),
                negative=len(negative),
                maximal=len(sorted_maximal),
                rank=rank,
                n=n,
                nodes=nodes,
                diffset_nodes=diffset_nodes,
            )
        return EclatResult(
            universe=universe,
            interesting=tuple(rank_sorted(supports)),
            maximal=sorted_maximal,
            negative_border=tuple(rank_sorted(negative)),
            queries=queries,
            min_support=threshold,
            supports=supports,
            nodes=nodes,
            diffset_nodes=diffset_nodes,
        )
