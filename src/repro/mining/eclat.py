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

On the ``"auto"`` backend from :data:`_BLOCK_MIN_ROWS` rows up, a class
keeps its covers as the rows of one ``uint64`` block
(:func:`_expand_block`): a node ANDs the slice of its extensions with
its own cover and counts every row with one ``np.bitwise_count`` sum,
where the big-int kernel pays one ``int.bit_count`` per extension.
Below the crossover the per-call numpy cost outweighs that, and the
big-int kernel runs; numpy is imported by the block kernel and
:func:`_root_cover`, so a run below the crossover never loads it.
Block covers count rows and switch by the same row rule, so even
``diffset_nodes`` match the big-int run.

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
recovered from the rejected masks by checking only the parents the
traversal does not already know frequent (:func:`_negative_border`).
Query accounting obeys
``|MTh| + |Bd-|  ≤  queries  ≤  n·|Th| + 1  ≤  2^k·n·|MTh| + 1`` —
the Theorem 2 floor and the Corollary 13 ceiling (with one extra for the
``∅`` probe) — which :class:`~repro.obs.monitor.TheoremMonitor` checks
on every traced run via the ``eclat.done`` event.

**One evaluation path.**  Every node is evaluated by one of the three
hot kernels (:func:`_expand`, :func:`_expand_roaring`,
:func:`_expand_block` — the only places the tid/diff switch rule lives)
inside the one traversal, :func:`_mine_subtree`.  The kernel follows
from the type of the node's cover (:func:`_expand_for`), and every
cover descends from the root's (:func:`_root_cover`), so the serial
engine, :class:`_Run`, the parallel coordinator, its workers and its
serial fallback all pick the same one.  A run with no budget and no
tracer lets the kernels write straight into its answer tables.  A
budgeted or traced run, and the parallel coordinator
(:mod:`repro.parallel.eclat`), charge each node instead
(:class:`_Run`): the ``eclat.node`` event, the family check, the kernel
into a node-local dict, then the node's answers replayed in extension
order — per answer a query/deadline check, the count, the
``oracle.query`` event and the record.  The budget thus sees one check
per evaluation: a budgeted run stops at exactly its query limit, and a
deadline overshoots by at most one node, whose kernel call runs before
its checks.

A cut — a budget or ``KeyboardInterrupt``, traced or not — returns a
certified :class:`~repro.runtime.partial.PartialResult` whose ``Bd+``
prefix and verified ``Bd-`` prefix are genuine, with a *complete* lower
frontier rebuilt from the DFS stack and the answers recorded so far
(every undecided itemset extends a frontier element).  ``workers=N``
ships subtree tasks to a :class:`~repro.parallel.pool.WorkerPool`
(:func:`repro.parallel.eclat.eclat_parallel`) with bit-identical
results.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.core.errors import BudgetExhausted
from repro.datasets.transactions import TransactionDatabase
from repro.obs.tracer import Tracer, as_tracer
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult, build_partial
from repro.util.bitset import Universe, popcount, rank_sorted
from repro.util.roaring import RoaringBitmap

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


#: Rows from which an ``"auto"`` database is mined over block covers
#: (:func:`_expand_block`) instead of big ints.  Set at or above the
#: crossover of the shape that gains least from blocks (the few-member
#: classes of a dense skewed input, measured in docs/API.md §13), so
#: every shape above it gains.
_BLOCK_MIN_ROWS = 1 << 16

#: Bytes of AND result one :func:`_expand_block` chunk may hold; the
#: rows per chunk follow from the cover width.
_BLOCK_SCRATCH_BYTES = 1 << 18


def _expand_block(
    prefix: int,
    is_diff: bool,
    parent_supp: int,
    parent_cover: tuple,
    exts: list,
    threshold: int,
    supports: dict[int, int],
    rejected: list[int],
) -> tuple[list, bool]:
    """:func:`_expand` over block covers (hot kernel twin).

    A block cover is a ``(block, row)`` pair: a class keeps its
    members' covers as the rows of one ``uint64`` block, in member
    order, so a node's extensions (a run of its parent's members) are
    one slice of it.  The node ANDs that slice with its own cover and
    sums ``np.bitwise_count`` over each row, in chunks of at most
    :data:`_BLOCK_SCRATCH_BYTES` (at least one row), then keeps the
    frequent rows as its child class's block.  At the root the
    extensions are the database's big-int columns under the full
    cover: their supports are int popcounts, and only the frequent ones
    are packed, one row at a time.  Answers, their order and the
    tid→diff switch (row counts) are :func:`_expand`'s.
    """
    if not exts:
        return [], is_diff
    import numpy as np

    block, row = parent_cover
    parent = block[row]
    root = type(exts[0][2]) is int
    if root:
        # Each column lies inside the full cover: it is its own tidset.
        supps = [cover.bit_count() for _, _, cover in exts]
    else:
        ext_block, first = exts[0][2]
        tail = ext_block[first : first + len(exts)]
        mask = ~parent if is_diff else parent
        step = max(1, _BLOCK_SCRATCH_BYTES // max(1, parent.nbytes))
        supps = []
        for start in range(0, len(tail), step):
            part = np.bitwise_and(tail[start : start + step], mask)
            # A row holds at most 64 bits per word, far below 2**32.
            supps += np.add.reduce(
                np.bitwise_count(part), axis=1, dtype=np.uint32
            ).tolist()
        if is_diff:
            supps = [parent_supp - count for count in supps]
    kept: list[int] = []
    for index, supp in enumerate(supps):
        mask_bits = prefix | exts[index][0]
        if supp >= threshold:
            supports[mask_bits] = supp
            kept.append(index)
        else:
            rejected.append(mask_bits)
    if not kept:
        return [], is_diff
    if root:
        child = np.empty((len(kept), len(parent)), dtype=np.uint64)
        for position, index in enumerate(kept):
            child[position] = np.frombuffer(
                exts[index][2].to_bytes(parent.nbytes, "little"), dtype="<u8"
            )
    elif len(tail) <= step:
        # One chunk: its AND already holds every child cover.
        child = part if len(kept) == len(tail) else part[kept]
    else:
        child = tail[kept]
        np.bitwise_and(child, mask, out=child)
    if not is_diff and len(kept) > 1:
        tid_total = sum([supps[index] for index in kept])
        if parent_supp * len(kept) - tid_total < tid_total:
            # A child tidset lies inside the parent's, so its diffset
            # ``parent & ~child`` is ``parent ^ child``.
            np.bitwise_xor(child, parent, out=child)
            is_diff = True
    return [
        (exts[index][0], supps[index], (child, position))
        for position, index in enumerate(kept)
    ], is_diff


def _root_cover(columns: list, n_rows: int):
    """The cover of ``∅``, in the representation that picks the kernels.

    Every node's kernel follows from its parent cover's type
    (:func:`_expand_for`), and every cover descends from this one:
    roaring columns get a roaring cover, big-int columns a block row
    from :data:`_BLOCK_MIN_ROWS` rows up and a big int below.
    """
    if columns and type(columns[0]) is not int:
        return RoaringBitmap.full(n_rows)
    full = (1 << n_rows) - 1
    if n_rows < _BLOCK_MIN_ROWS:
        return full
    import numpy as np

    n_words = (n_rows + 63) // 64
    row = np.frombuffer(full.to_bytes(8 * n_words, "little"), dtype="<u8")
    return row.reshape(1, n_words), 0


def _expand_for(cover):
    """The expand kernel matching a cover's representation."""
    kind = type(cover)
    if kind is int:
        return _expand
    if kind is tuple:
        return _expand_block
    return _expand_roaring


def _mine_subtree(
    prefix: int,
    is_diff: bool,
    parent_supp: int,
    parent_cover: int,
    exts: list[tuple[int, int, int]],
    threshold: int,
    supports: dict[int, int],
    rejected: list[int],
    stack: list[list] | None = None,
    charge=None,
) -> tuple[int, int]:
    """DFS one whole equivalence-class subtree — the one traversal.

    Every Eclat node goes through here: the serial engine runs the
    entire tree through it (``prefix=0`` with the full-database cover
    makes the root class an ordinary node), and each
    :mod:`repro.parallel.eclat` worker runs one task subtree.  Returns
    ``(nodes, diffset_nodes)``; answers accumulate in the caller's
    ``supports``/``rejected`` in deterministic DFS order.

    ``stack`` is an optional caller-owned list that receives the DFS
    frames ``[prefix, is_diff, members, next member index]``, so a
    caller interrupted mid-tree can rebuild its frontier from it.
    ``charge`` is an optional ``charge(prefix, is_diff, parent_supp,
    parent_cover, exts)`` that evaluates a node in place of the kernel
    (:meth:`_Run.charge`); without it the kernel writes straight into
    ``supports``/``rejected``.
    """
    nodes = 1
    diffset_nodes = 1 if is_diff else 0
    expand = _expand_for(parent_cover)
    if charge is None:
        members, is_diff = expand(
            prefix, is_diff, parent_supp, parent_cover, exts,
            threshold, supports, rejected,
        )
    else:
        members, is_diff = charge(
            prefix, is_diff, parent_supp, parent_cover, exts
        )
    if len(members) < 2:
        return nodes, diffset_nodes
    if stack is None:
        stack = []
    stack.append([prefix, is_diff, members, 0])
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
        if charge is None:
            child_members, child_diff = expand(
                child_prefix, frame[1], supp, cover,
                frame_members[index + 1 :], threshold, supports, rejected,
            )
        else:
            child_members, child_diff = charge(
                child_prefix, frame[1], supp, cover,
                frame_members[index + 1 :],
            )
        if len(child_members) > 1:
            stack.append([child_prefix, child_diff, child_members, 0])
    return nodes, diffset_nodes


def _maximal_from_supports(supports: Collection[int]) -> list[int]:
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


def _node_frontier(prefix: int, exts, supports: dict[int, int]) -> list[int]:
    """A node's extensions plus the pairs of its confirmed ones.

    ``exts`` are the node's extension tuples (bit first).  Every
    undecided mask of the node's subtree contains an extension not yet
    answered, or at least two confirmed extensions: a mask with a
    rejected extension is decided ``False``, and a confirmed extension
    alone is decided ``True``.  :func:`~repro.runtime.partial.build_partial`
    drops the decided masks, so the list may include answered ones.
    """
    masks = [prefix | ext[0] for ext in exts]
    confirmed = [mask for mask in masks if mask in supports]
    masks += [
        first | second
        for index, first in enumerate(confirmed)
        for second in confirmed[index + 1 :]
    ]
    return masks


def _frontier(root_exts, stack: list, supports: dict[int, int]) -> list[int]:
    """The lower frontier of a cut run, complete at any cut.

    ``stack`` holds DFS frames ``(prefix, is_diff, members, next
    index)``.  Every undecided mask lies under the root class, or under
    a frame member at or after the frame's next index − 1 (the subtrees
    of the members before it are done), and a node's frontier covers
    its subtree.  The member at next index − 1 is the node in flight in
    the top frame; in a lower frame it is the node of the frame above,
    whose frontier only repeats masks that are decided or listed.
    """
    if 0 not in supports:
        return [0]
    masks = _node_frontier(0, root_exts, supports)
    for prefix, _, members, index in stack:
        for position in range(max(index - 1, 0), len(members) - 1):
            masks += _node_frontier(
                prefix | members[position][0], members[position + 1 :],
                supports,
            )
    return masks


def _negative_border(
    rejected: list[int], supports: Collection[int]
) -> list[int]:
    """``Bd-``: the rejected masks of a complete run whose every
    immediate generalization is frequent.

    A rejected mask is ``N ∪ {x}``, answered at the node of frequent
    prefix ``N`` with ``x`` above every bit of ``N``.  At the root
    ``N = ∅`` is the one parent.  Below it ``N = P ∪ {a}`` is a member
    of class ``P`` and ``x`` a later member of the same class, so ``a``
    and ``x`` are the mask's two highest bits and both ``P ∪ {a}`` and
    ``P ∪ {x}`` are frequent: only the parents that drop a bit of ``P``
    need a lookup.
    """
    negative = []
    for mask in rejected:
        # P's bits are the mask's lowest popcount − 2 (none for ∅ or a
        # singleton).
        remaining = mask
        for _ in range(mask.bit_count() - 2):
            low = remaining & -remaining
            if mask ^ low not in supports:
                break
            remaining ^= low
        else:
            negative.append(mask)
    return negative


class _Run:
    """One Eclat run's policy and answers, shared by both engines.

    Validates the arguments, then holds the budget, the tracer and the
    answers charged so far: ``supports`` (frequent mask → support) and
    ``rejected`` (infrequent masks in charge order).  Every evaluated
    mask sits in exactly one of the two, so they are the run's whole
    oracle history and their sizes sum to the query count.  A run ends
    in :meth:`partial` (a certified cut) or :meth:`complete`.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        min_support: int | float,
        budget: "Budget | None",
        on_exhaust: str,
        tracer: "Tracer | None",
    ):
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
        self.universe = database.universe
        self.threshold = threshold
        self.budget = budget
        self.on_exhaust = on_exhaust
        self.tracer = as_tracer(tracer)
        self.supports: dict[int, int] = {}
        self.rejected: list[int] = []
        self.t0 = time.monotonic()
        if budget is not None:
            budget.begin()

    @property
    def queries(self) -> int:
        return len(self.supports) + len(self.rejected)

    def charge(
        self, prefix: int, is_diff: bool, parent_supp: int, parent_cover, exts
    ) -> tuple[list, bool]:
        """Evaluate one node of a budgeted or traced run and charge it.

        The ``charge`` step of :func:`_mine_subtree`: :meth:`open` the
        node, run the matching kernel into a node-local dict, then
        :meth:`replay` its answers.  The kernel call precedes the
        per-answer checks, so a deadline overshoots by at most this one
        node (``len(exts)`` cover operations).
        """
        self.open(prefix, is_diff, len(exts))
        answers: dict[int, int] = {}
        node = _expand_for(parent_cover)(
            prefix, is_diff, parent_supp, parent_cover, exts,
            self.threshold, answers, [],
        )
        self.replay(prefix, exts, answers)
        return node

    def open(self, prefix: int, is_diff: bool, tail: int) -> None:
        """Enter a node: its ``eclat.node`` event, then the family check."""
        if self.tracer.enabled:
            self.tracer.event(
                "eclat.node",
                prefix=prefix,
                tail=tail,
                kind="diff" if is_diff else "tid",
            )
        if self.budget is not None:
            self.budget.check(queries=self.queries, family=tail)

    def replay(self, prefix: int, exts, answers: dict[int, int]) -> None:
        """Charge a node's answers in extension order.

        ``answers`` maps each frequent ``prefix | bit`` to its support;
        an extension missing from it was rejected.  Per extension: a
        budget check, the count, the ``oracle.query`` event, then the
        record in ``supports`` or ``rejected``.
        """
        budget = self.budget
        tracer = self.tracer
        supports = self.supports
        rejected = self.rejected
        queries = len(supports) + len(rejected)
        for ext in exts:
            if budget is not None:
                budget.check(queries=queries)
            mask = prefix | ext[0]
            supp = answers.get(mask)
            queries += 1
            if tracer.enabled:
                tracer.event(
                    "oracle.query",
                    mask=mask,
                    answer=supp is not None,
                    charged=True,
                )
            if supp is None:
                rejected.append(mask)
            else:
                supports[mask] = supp

    def probe_empty(self, n_rows: int) -> bool:
        """Charge ``∅`` first, like every other engine; ``True`` if frequent.

        ``∅`` is the one extension of a node with prefix ``∅``.
        """
        self.replay(
            0, ((0,),), {0: n_rows} if n_rows >= self.threshold else {}
        )
        return 0 in self.supports

    def partial(
        self, reason: str, root_exts, stack: list, run_span
    ) -> PartialResult:
        """End a cut run: the certified partial, returned or raised.

        Its frontier comes from the root class's extensions and the DFS
        frames (:func:`_frontier`).
        """
        history = dict.fromkeys(self.supports, True)
        history.update(dict.fromkeys(self.rejected, False))
        queries = len(history)
        partial = build_partial(
            self.universe,
            "eclat",
            reason,
            history,
            frontier=_frontier(root_exts, stack, self.supports),
            queries=queries,
            total_calls=queries,
            evaluations=queries,
            elapsed=time.monotonic() - self.t0,
        )
        if self.tracer.enabled:
            run_span.note(outcome="partial", reason=reason)
        if self.on_exhaust == "raise":
            raise BudgetExhausted(reason, partial=partial)
        return partial

    def complete(
        self, maximal, nodes: int, diffset_nodes: int, run_span
    ) -> EclatResult:
        """End a complete run: Bd- filter, sorting and ``eclat.done``."""
        supports = self.supports
        queries = self.queries
        negative = _negative_border(self.rejected, supports)
        sorted_maximal = tuple(rank_sorted(maximal))
        if self.tracer.enabled:
            run_span.note(outcome="complete", queries=queries)
            self.tracer.event(
                "eclat.done",
                queries=queries,
                theory=len(supports),
                negative=len(negative),
                maximal=len(sorted_maximal),
                rank=popcount(sorted_maximal[-1]) if sorted_maximal else 0,
                n=len(self.universe),
                nodes=nodes,
                diffset_nodes=diffset_nodes,
            )
        return EclatResult(
            universe=self.universe,
            interesting=tuple(rank_sorted(supports)),
            maximal=sorted_maximal,
            negative_border=tuple(rank_sorted(negative)),
            queries=queries,
            min_support=self.threshold,
            supports=supports,
            nodes=nodes,
            diffset_nodes=diffset_nodes,
        )


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
            :class:`~repro.runtime.budget.Budget`, checked at node entry
            (family = the candidate tail length) and before charging
            each answer (queries/timeout), so the query limit is hit
            exactly; a deadline overshoots by at most one node.  On
            exhaustion the :class:`~repro.runtime.partial.PartialResult`
            carries a *complete* ``"lower"`` frontier: the extensions of
            the node in flight, the pairs of its confirmed ones, and the
            pairs of every stack frame's unexpanded members — every
            undecided itemset extends one of them.  No checkpoint (like
            MaxMiner, the tree is cheap to replay; resume by
            re-running).
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
            :class:`~repro.parallel.pool.WorkerPool` in submission
            order via :func:`repro.parallel.eclat.eclat_parallel`,
            with bit-identical output.

    Returns:
        An :class:`EclatResult` whose theory and borders equal
        :func:`~repro.mining.levelwise.levelwise`'s and whose support
        table equals :func:`~repro.mining.apriori.apriori`'s, or a
        certified :class:`~repro.runtime.partial.PartialResult` — also
        on ``KeyboardInterrupt``, with the same complete frontier.
    """
    run = _Run(database, min_support, budget, on_exhaust, tracer)
    if workers is not None and workers > 1:
        from repro.parallel.eclat import eclat_parallel

        return eclat_parallel(
            database,
            run.threshold,
            workers=workers,
            budget=budget,
            on_exhaust=on_exhaust,
            tracer=tracer,
        )
    tracer = run.tracer
    supports = run.supports
    n_rows = database.n_transactions
    columns = database.tidsets_view()
    root_exts = [
        (1 << item, 0, column) for item, column in enumerate(columns)
    ]
    # DFS frames [prefix, is_diff, members, next member index], owned
    # here so that a cut can rebuild its frontier from them.
    stack: list[list] = []
    nodes = diffset_nodes = 0

    with tracer.span(
        "eclat.run", n=len(root_exts), threshold=run.threshold
    ) as run_span:
        try:
            if run.probe_empty(n_rows):
                nodes, diffset_nodes = _mine_subtree(
                    0, False, n_rows, _root_cover(columns, n_rows),
                    root_exts, run.threshold, supports, run.rejected, stack,
                    run.charge if budget is not None or tracer.enabled
                    else None,
                )
        except BudgetExhausted as exhausted:
            return run.partial(exhausted.reason, root_exts, stack, run_span)
        except KeyboardInterrupt:
            return run.partial("interrupt", root_exts, stack, run_span)
        return run.complete(
            _maximal_from_supports(supports), nodes, diffset_nodes, run_span
        )
