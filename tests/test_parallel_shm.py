"""Tests for the zero-copy shared-memory vertical store.

Covers the store's round-trip fidelity (columns) and the lifetime
discipline that keeps ``/dev/shm`` clean (unlink on close, idempotence,
budget-cut runs).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.parallel.shm import ShmVerticalStore
from repro.util.bitset import Universe


def _random_database(rng, n_items=12, n_rows=200) -> TransactionDatabase:
    universe = Universe(tuple(f"i{k}" for k in range(n_items)))
    rows = [rng.getrandbits(n_items) for _ in range(n_rows)]
    return TransactionDatabase(universe, rows)


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


# -- round trip ---------------------------------------------------------


def test_publish_attach_columns_round_trip():
    database = _random_database(random.Random(0))
    with ShmVerticalStore.publish(database) as store:
        attached = ShmVerticalStore.attach(store.handle)
        try:
            assert attached.columns() == list(database.tidsets_view())
        finally:
            attached.close()


def test_attach_missing_segment_is_loud():
    database = _random_database(random.Random(8), n_rows=70)
    store = ShmVerticalStore.publish(database)
    handle = store.handle
    store.unlink()
    with pytest.raises(FileNotFoundError):
        ShmVerticalStore.attach(handle)


# -- lifetime / leak discipline ----------------------------------------


def test_unlink_is_idempotent_and_removes_segment():
    before = _shm_entries()
    database = _random_database(random.Random(9), n_rows=90)
    store = ShmVerticalStore.publish(database)
    store.unlink()
    store.unlink()
    store.close()
    assert _shm_entries() - before == set()


def test_budget_cut_run_leaves_no_segment():
    from repro.parallel.eclat import eclat_parallel
    from repro.runtime.budget import Budget
    from repro.runtime.partial import PartialResult

    before = _shm_entries()
    database = _random_database(random.Random(11), n_items=10, n_rows=80)
    partial = eclat_parallel(
        database,
        5,
        workers=2,
        budget=Budget(max_queries=12),
    )
    assert isinstance(partial, PartialResult)
    assert _shm_entries() - before == set()

