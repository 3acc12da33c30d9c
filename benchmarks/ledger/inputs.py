"""Seeded input generators for the ledger workloads.

Every generator splits its randomness in two.  A constant *shape* seed
fixes what sets the cost of the instance: the basket pattern pool, the
relation's cell values.  The run seed draws everything else: which
pattern each row samples and how it is corrupted, the row order, the
value labels, the request plan.  Two seeds therefore give different
inputs of near-identical cost, so the run-to-run spread the benchmark
reports is the program's and the host's, not the generator's.

Nothing here imports the program: the inputs are plain Python values or
files, and the program only ever sees those.
"""

from __future__ import annotations

import bisect
import itertools
import random
import zlib
from dataclasses import dataclass


def derive_seed(seed: int, label: str) -> int:
    """A stable per-purpose seed derived from the run seed."""
    return zlib.crc32(f"{label}:{seed}".encode("ascii"))


# -- Quest-style baskets (fimi_100k, serve_mixed) ---------------------------


@dataclass(frozen=True)
class BasketShape:
    """A Quest-style basket source: weighted patterns plus noise items.

    Each row samples one pattern by weight, drops each pattern item with
    probability ``corruption``, then adds an exponential number (mean
    ``noise_mean``) of uniform noise items.
    """

    n_items: int
    n_rows: int
    n_patterns: int
    pattern_mean: float
    corruption: float
    noise_mean: float
    shape_seed: int


def _pattern_pool(shape: BasketShape) -> tuple[list[list[int]], list[float]]:
    rng = random.Random(shape.shape_seed)
    patterns: list[list[int]] = []
    weights: list[float] = []
    for _ in range(shape.n_patterns):
        size = min(shape.n_items, max(1, round(
            rng.expovariate(1.0 / shape.pattern_mean)
        )))
        patterns.append(rng.sample(range(shape.n_items), size))
        weights.append(rng.expovariate(1.0))
    return patterns, list(itertools.accumulate(weights))


def basket_rows(shape: BasketShape, seed: int, n_rows: int | None = None):
    """Yield ``n_rows`` (default ``shape.n_rows``) sorted item lists."""
    patterns, cumulative = _pattern_pool(shape)
    total = cumulative[-1]
    rng = random.Random(seed)
    draw, noise, pick = rng.random, rng.expovariate, rng.randrange
    noise_rate = 1.0 / shape.noise_mean
    for _ in range(shape.n_rows if n_rows is None else n_rows):
        pattern = patterns[bisect.bisect(cumulative, draw() * total)]
        row = {item for item in pattern if draw() >= shape.corruption}
        for _ in range(int(noise(noise_rate))):
            row.add(pick(shape.n_items))
        yield sorted(row)


def write_baskets(path, shape: BasketShape, seed: int) -> int:
    """Stream a FIMI ``.dat`` file of ``shape.n_rows`` rows; returns bytes."""
    written = 0
    with open(path, "w", encoding="ascii") as handle:
        block: list[str] = []
        for row in basket_rows(shape, seed):
            block.append(" ".join(map(str, row)))
            if len(block) == 4096:
                written += handle.write("\n".join(block) + "\n")
                block = []
        if block:
            written += handle.write("\n".join(block) + "\n")
    return written


# -- relations (fd_keys, parallel_2w) ---------------------------------------


@dataclass(frozen=True)
class RelationShape:
    """A random relation over a small value domain (data-profiling shape)."""

    n_attributes: int
    n_rows: int
    domain_size: int
    shape_seed: int


def relation_rows(shape: RelationShape, seed: int) -> list[tuple[int, ...]]:
    """The shape's relation with rows shuffled and each column's values
    relabelled by the run seed.

    Agree sets depend only on which rows coincide on which columns, so
    the agree-set hypergraph, and with it the key family, is the same
    for every seed.
    """
    base = random.Random(shape.shape_seed)
    rows = [
        [base.randrange(shape.domain_size) for _ in range(shape.n_attributes)]
        for _ in range(shape.n_rows)
    ]
    rng = random.Random(seed)
    for column in range(shape.n_attributes):
        labels = list(range(shape.domain_size))
        rng.shuffle(labels)
        for row in rows:
            row[column] = labels[row[column]]
    rng.shuffle(rows)
    return [tuple(row) for row in rows]


# -- skewed baskets (parallel_2w) -------------------------------------------


@dataclass(frozen=True)
class SkewedShape:
    """A dense correlated block plus a sparse noise tail.

    One Bernoulli gate per row keeps the block's items co-occurring, so
    the Eclat tree has one deep shared subtree: the load-imbalanced case
    work stealing exists for.
    """

    n_items: int
    n_dense: int
    n_rows: int
    dense_p: float
    noise_p: float


def skewed_rows(shape: SkewedShape, seed: int) -> list[int]:
    """Row bitmasks over items ``0..n_items-1``."""
    rng = random.Random(seed)
    draw = rng.random
    rows: list[int] = []
    for _ in range(shape.n_rows):
        row = 0
        if draw() < shape.dense_p:
            for item in range(shape.n_dense):
                if draw() < shape.dense_p:
                    row |= 1 << item
        for item in range(shape.n_dense, shape.n_items):
            if draw() < shape.noise_p:
                row |= 1 << item
        rows.append(row)
    return rows


# -- the serve_mixed request plan -------------------------------------------

#: One batch of the closed-loop plan: 75% reads, 20% writes, 5% cold
#: mines, fixed per batch so every batch costs about the same.
BATCH_MIX = (
    ("mine", 4),
    ("member", 8),
    ("borders", 2),
    ("health", 1),
    ("append", 3),
    ("threshold", 1),
    ("cold", 1),
)
BATCH_SIZE = sum(count for _, count in BATCH_MIX)
APPENDS_PER_BATCH = dict(BATCH_MIX)["append"]
READ_KINDS = frozenset({"mine", "member", "borders", "health"})
WRITE_KINDS = frozenset({"append", "threshold"})
APPEND_ROWS = 10
HOT_SUPPORT = 0.05
ALT_SUPPORT = 0.06
COLD_SUPPORT = 0.04


@dataclass(frozen=True)
class Request:
    """One planned operation: ``kind`` plus its payload.

    ``rows`` (append) are item lists; ``items`` (member) an item list;
    ``value`` (threshold) a relative support.
    """

    kind: str
    rows: tuple[tuple[int, ...], ...] = ()
    items: tuple[int, ...] = ()
    value: float = 0.0


def request_plan(shape: BasketShape, seed: int, n_batches: int):
    """Yield ``n_batches`` batches (lists of :class:`Request`).

    Appended rows come from the same basket source as the base data, so
    appends keep the theory's shape; thresholds alternate between
    :data:`ALT_SUPPORT` and :data:`HOT_SUPPORT`.
    """
    rng = random.Random(derive_seed(seed, "plan"))
    rows = basket_rows(
        shape,
        derive_seed(seed, "append"),
        n_rows=n_batches * APPENDS_PER_BATCH * APPEND_ROWS,
    )
    flip = itertools.cycle((ALT_SUPPORT, HOT_SUPPORT))
    for _ in range(n_batches):
        batch: list[Request] = []
        for kind, count in BATCH_MIX:
            for _ in range(count):
                if kind == "append":
                    batch.append(Request(kind, rows=tuple(
                        tuple(next(rows)) for _ in range(APPEND_ROWS)
                    )))
                elif kind == "threshold":
                    batch.append(Request(kind, value=next(flip)))
                elif kind == "member":
                    size = rng.randint(1, 4)
                    batch.append(Request(kind, items=tuple(sorted(
                        rng.sample(range(shape.n_items), size)
                    ))))
                else:
                    batch.append(Request(kind))
        rng.shuffle(batch)
        yield batch
