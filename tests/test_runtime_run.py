"""The run contract, once for every budgeted miner.

Every budgeted miner — levelwise, Dualize and Advance through each
transversal engine, MaxMiner over a predicate, and Eclat serial and at
2 workers — opens, checks and cuts its run through
:class:`repro.runtime.run.Run`, so each must keep the same contract:

* a budget cut returns a certified partial with the budget's reason;
* a ``KeyboardInterrupt`` from the predicate (Eclat: from its kernel)
  returns a certified partial with reason ``"interrupt"``;
* the resumable miners build a partial and its checkpoint from one
  accounting snapshot, and a resume equals the uninterrupted run —
  also from a levelwise checkpoint written before its state dropped
  the per-level fields.
"""

from __future__ import annotations

import importlib
import os

import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.instances.frequent_itemsets import FrequencyPredicate
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.eclat import eclat
from repro.mining.levelwise import levelwise
from repro.mining.maxminer import maxminer_maxth
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe

N_ITEMS = 6
ROWS = [i % 63 or 1 for i in range(1, 40)]
THRESHOLD = 4
DATABASE = TransactionDatabase(Universe(range(N_ITEMS)), ROWS)
PREDICATE = FrequencyPredicate(DATABASE, THRESHOLD)


def _on_predicate(miner, **fixed):
    def mine(predicate=PREDICATE, **kwargs):
        return miner(DATABASE.universe, predicate, **fixed, **kwargs)

    return mine


def _on_database(**fixed):
    def mine(predicate=None, **kwargs):
        return eclat(DATABASE, THRESHOLD, **fixed, **kwargs)

    return mine


ROUTES = {
    "levelwise": _on_predicate(levelwise),
    "dualize_advance-fk": _on_predicate(dualize_and_advance, engine="fk"),
    "dualize_advance-berge": _on_predicate(
        dualize_and_advance, engine="berge"
    ),
    "dualize_advance-mmcs": _on_predicate(dualize_and_advance, engine="mmcs"),
    "maxminer_maxth": _on_predicate(maxminer_maxth),
    "eclat": _on_database(),
    "eclat-2-workers": _on_database(workers=2),
}
RESUMABLE = [name for name in ROUTES if name.split("-")[0] in (
    "levelwise", "dualize_advance"
)]


@pytest.fixture(params=list(ROUTES))
def route(request):
    return request.param


def _assert_certified(partial, reason):
    assert isinstance(partial, PartialResult)
    assert partial.reason == reason
    assert partial.certificate().ok
    assert partial.certificate(PREDICATE).ok


def test_budget_cut_returns_a_certified_partial(route):
    _assert_certified(ROUTES[route](budget=Budget(max_queries=5)), "queries")


class _InterruptAt:
    """A predicate that raises ``KeyboardInterrupt`` on its k-th call."""

    def __init__(self, k):
        self.calls = 0
        self.k = k

    def __call__(self, mask):
        self.calls += 1
        if self.calls == self.k:
            raise KeyboardInterrupt
        return PREDICATE(mask)


def _interrupt_eclat(monkeypatch, route, k):
    """Run an Eclat route with Ctrl-C raised from its kernel.

    The interrupt comes at the k-th kernel call on the coordinator, or
    at its last one when there are fewer: workers run theirs in other
    processes.
    """
    module = importlib.import_module("repro.mining.eclat")
    coordinator = os.getpid()
    calls = [0]
    limit = [None]

    def cutting(kernel):
        def cut(*args):
            if os.getpid() == coordinator:
                calls[0] += 1
                if calls[0] == limit[0]:
                    raise KeyboardInterrupt
            return kernel(*args)

        return cut

    for name in ("_expand", "_expand_roaring", "_expand_block"):
        monkeypatch.setattr(module, name, cutting(getattr(module, name)))
    ROUTES[route]()
    limit[0] = min(k, calls[0])
    calls[0] = 0
    return ROUTES[route]()


@pytest.mark.parametrize("k", [1, 2, 3, 10, 30])
def test_interrupt_returns_a_certified_partial(route, k, monkeypatch):
    if route.startswith("eclat"):
        partial = _interrupt_eclat(monkeypatch, route, k)
    else:
        partial = ROUTES[route](predicate=_InterruptAt(k))
    _assert_certified(partial, "interrupt")


@pytest.mark.parametrize("route", RESUMABLE)
def test_partial_and_checkpoint_share_one_snapshot(route):
    baseline = ROUTES[route]()
    for cut in range(1, baseline.queries):
        partial = ROUTES[route](budget=Budget(max_queries=cut))
        if not isinstance(partial, PartialResult):
            continue  # the cut landed in the final atomic unit
        assert partial.checkpoint.accounting == {
            "queries": partial.queries,
            "total_calls": partial.total_calls,
            "evaluations": partial.evaluations,
            "elapsed": partial.elapsed,
        }
        assert partial.checkpoint.history == partial.history


@pytest.mark.parametrize("route", RESUMABLE)
def test_resume_equals_the_uninterrupted_run(route):
    baseline = ROUTES[route]()
    for cut in range(1, baseline.queries):
        partial = ROUTES[route](budget=Budget(max_queries=cut))
        if not isinstance(partial, PartialResult):
            assert partial == baseline
            continue
        text = partial.checkpoint.to_json()
        resumed = ROUTES[route](resume=Checkpoint.from_json(text))
        assert resumed == baseline
        assert resumed.iterations == baseline.iterations


#: A levelwise checkpoint of the Figure 1 problem cut at 7 queries, in
#: the format written before the state dropped ``levels``,
#: ``candidates_per_level`` and ``level_counted`` and before the
#: predicate record (version 1 both).
PER_LEVEL_CHECKPOINT = (
    '{"version": 1, "algorithm": "levelwise", "universe_items": '
    '["A", "B", "C", "D"], "state": {"max_rank": null, "level_rank": 2, '
    '"interesting": [0, 1, 2, 4, 8, 3, 5], "negative": [], "levels": '
    '[[0], [1, 2, 4, 8]], "candidates_per_level": [1, 4, 6], '
    '"current_candidates": [3, 5, 6, 9, 10, 12], "position": 2, '
    '"current_level_interesting": [3, 5], "level_counted": true}, '
    '"history": [[0, true], [1, true], [2, true], [3, true], [4, true], '
    '[5, true], [8, true]], "accounting": {"queries": 7, "total_calls": '
    '7, "evaluations": 7, "elapsed": 0.00017933100752998143}}'
)


def test_resume_from_a_checkpoint_with_per_level_fields(figure1_theory):
    universe = figure1_theory.universe
    baseline = levelwise(universe, figure1_theory.is_interesting)
    resumed = levelwise(
        universe,
        figure1_theory.is_interesting,
        resume=PER_LEVEL_CHECKPOINT,
    )
    assert resumed == baseline
    assert resumed.levels == baseline.levels
