"""Worker-count routing through the public entry points.

Two engines run in parallel: Eclat (work-stolen subtrees over a
shared-memory vertical store) and MMCS (work-stolen depth-2 subtrees).
Their bit-identity suites are ``test_parallel_steal.py`` and
``test_hypergraph_mmcs.py``.  This module pins the routing: ``workers``
reaches those engines through :func:`mine_frequent_itemsets` and
:func:`minimal_transversals` with results identical to serial, and every
other algorithm or method rejects ``workers > 1`` with an error naming
the supported choice.

CI runs this module twice, with ``--workers 2`` and ``--workers 4``
(the pytest option; see ``tests/conftest.py``), on every supported
Python.  Locally it defaults to 2 workers.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.enumeration import minimal_transversals
from repro.instances.frequent_itemsets import mine_frequent_itemsets
from repro.util.bitset import Universe


def _random_database(
    rng: random.Random, n_items: int, n_rows: int
) -> TransactionDatabase:
    universe = Universe(range(n_items))
    rows = [rng.getrandbits(n_items) for _ in range(n_rows)]
    return TransactionDatabase(universe, rows)


def test_workers_rejected_for_non_eclat():
    database = _random_database(random.Random(0), 6, 20)
    for algorithm in ("apriori", "levelwise"):
        with pytest.raises(ValueError, match="does not support workers"):
            mine_frequent_itemsets(
                database, 0.5, algorithm=algorithm, workers=2
            )
    with pytest.raises(ValueError, match="use eclat"):
        mine_frequent_itemsets(
            database, 0.5, algorithm="levelwise", workers=2
        )


def test_minimal_transversals_workers(worker_count):
    edges = [
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({0, 3}),
    ]
    universe = Universe(range(4))
    hypergraph = Hypergraph.from_sets(edges, universe)
    serial = minimal_transversals(hypergraph, method="mmcs")
    parallel = minimal_transversals(
        hypergraph, method="mmcs", workers=worker_count
    )
    assert parallel == serial
    assert parallel == minimal_transversals(hypergraph, method="berge")
    for method in ("berge", "fk"):
        with pytest.raises(ValueError, match=r"only supported by .*mmcs"):
            minimal_transversals(hypergraph, method=method, workers=2)
