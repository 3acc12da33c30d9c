"""Assert shared-memory runs leave no segment behind in ``/dev/shm``.

Snapshots ``/dev/shm`` (or the platform's shared-memory mount), drives
the shm-backed engines through every lifecycle the tentpole promises to
clean up after — a full parallel run, a mid-run budget cut, and
an engine-level exception — then snapshots again.  Any new entry is a leak and the script exits 1, printing the
offending names.  CI runs this after the determinism suite
(``make steal-smoke``); it is also a quick local smoke::

    PYTHONPATH=src python -m benchmarks.shm_leak_check
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.datasets.transactions import TransactionDatabase
from repro.mining.eclat import eclat
from repro.parallel.eclat import eclat_parallel
from repro.runtime.budget import Budget
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe

SHM_DIR = Path("/dev/shm")


def shm_entries() -> set[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in SHM_DIR.iterdir()}


def _database(seed: int, n_items: int = 14, n_rows: int = 400):
    rng = random.Random(seed)
    rows = [rng.getrandbits(n_items) for _ in range(n_rows)]
    return TransactionDatabase(Universe(range(n_items)), rows)


def exercise() -> None:
    database = _database(7)

    # 1. full parallel run over the shm store
    full = eclat_parallel(database, 40, workers=2)
    serial = eclat(database, 40)
    assert full.interesting == serial.interesting, "full-run mismatch"

    # 2. mid-run budget cut: the partial path must also unlink
    cut = eclat_parallel(
        database,
        40,
        workers=2,
        budget=Budget(max_queries=30),
    )
    assert isinstance(cut, PartialResult), type(cut)

    # 3. engine failure mid-flight: finalizers still unlink
    try:
        eclat_parallel(database, -1, workers=2)
    except ValueError:
        pass


def main() -> int:
    before = shm_entries()
    exercise()
    leaked = shm_entries() - before
    if leaked:
        print(f"LEAK: {len(leaked)} new /dev/shm entr(ies): {sorted(leaked)}")
        return 1
    print("shm leak check passed: /dev/shm unchanged across all lifecycles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
