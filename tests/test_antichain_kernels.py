"""Property tests pinning the PR 1 kernels to the frozen seed kernels.

Three equivalences guard the rewrite:

* the antichain kernels (`minimize_masks`, `maximize_masks`,
  `AntichainIndex`, `merge_antichains`) agree with the quadratic
  reference reductions on arbitrary families — duplicates, the empty
  mask, singletons, and masks wider than one 64-bit word included;
* batched `support_counts` and its vectorized kernel agree with the
  scalar `support_count` chain, across universe sizes that straddle
  the 64-item chunk boundary;
* the batched dispatch changes nothing observable: Apriori results are
  bit-identical between backends, and `CountingOracle.batch_query`
  leaves exactly the same accounting as the equivalent sequence of
  single calls.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf_kernels import reference_maximize, reference_minimize
from repro.core.oracle import CountingOracle
from repro.datasets.transactions import TransactionDatabase
from repro.mining.apriori import apriori
from repro.util.antichain import (
    AntichainIndex,
    maximize_masks,
    merge_antichains,
    minimize_masks,
)
from repro.util.bitset import Universe, popcount


def wide_families(max_bits: int = 100, max_len: int = 30):
    """Families over up to ``max_bits`` bits, empty mask allowed."""
    return st.lists(
        st.integers(min_value=0, max_value=(1 << max_bits) - 1),
        max_size=max_len,
    )


@given(wide_families())
def test_minimize_matches_reference(family):
    assert minimize_masks(family) == reference_minimize(family)


@given(wide_families())
def test_maximize_matches_reference(family):
    assert maximize_masks(family) == reference_maximize(family)


@st.composite
def dense_families(draw):
    """Hundreds of members over 8–16 items, most of them dominated: the
    downward closure of a few random masks, plus a chain."""
    n_items = draw(st.integers(8, 16))
    top = (1 << n_items) - 1
    tops = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    family = set()
    for mask in tops:
        # The subsets of ``mask``, largest value first, up to a cap.
        sub = mask
        while True:
            family.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
            if len(family) >= 600:
                break
    chain = draw(st.permutations(range(n_items)))
    link = 0
    for item in chain[: draw(st.integers(0, n_items))]:
        link |= 1 << item
        family.add(link)
    return sorted(family)


@settings(deadline=None, max_examples=60)
@given(dense_families())
def test_maximize_matches_reference_on_dense_families(family):
    assert maximize_masks(family) == reference_maximize(family)


@given(wide_families())
def test_antichain_index_incremental_matches_one_shot(family):
    """Adding masks one at a time converges to the minimal family."""
    index = AntichainIndex()
    for mask in family:
        index.add(mask)
    assert index.sorted_masks() == reference_minimize(family)
    for mask in family:
        assert index.covers(mask)


@given(wide_families(), wide_families())
def test_merge_antichains_matches_reference(left, right):
    merged = merge_antichains(minimize_masks(left), minimize_masks(right))
    assert merged == reference_minimize(list(left) + list(right))


@st.composite
def databases_with_queries(draw):
    """A database plus a query batch, spanning the 64-item chunk edge."""
    n_items = draw(st.sampled_from([1, 3, 17, 63, 64, 65, 80]))
    top = (1 << n_items) - 1
    rows = draw(st.lists(st.integers(0, top), max_size=12))
    queries = draw(st.lists(st.integers(0, top), max_size=12))
    universe = Universe(range(n_items))
    return TransactionDatabase(universe, rows), queries


@settings(deadline=None)
@given(databases_with_queries())
def test_support_counts_backends_agree(case):
    database, queries = case
    expected = [database.support_count(mask) for mask in queries]
    assert database.support_counts(queries) == expected
    if queries:
        # auto's large-batch kernel, run on a batch of any size
        assert database._support_counts_numpy(queries) == expected


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(0, (1 << 10) - 1), max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_apriori_identical_across_backends(rows, min_support):
    universe = Universe(range(10))
    results = [
        apriori(
            TransactionDatabase(universe, rows, backend=backend), min_support
        )
        for backend in ("auto", "roaring")
    ]
    first, second = results
    assert first.supports == second.supports
    assert first.maximal == second.maximal
    assert first.negative_border == second.negative_border
    assert first.border_supports == second.border_supports


@given(
    st.lists(st.integers(0, 255), max_size=30),
    st.lists(st.integers(min_value=1, max_value=30), max_size=6),
    st.booleans(),
)
def test_batch_query_matches_sequential_accounting(masks, cuts, memoize):
    """Chunked ``batch_query`` leaves the accounting of single calls.

    The batch is split at arbitrary points, so the test covers repeated
    masks within one chunk, across chunks, and across the single/batch
    call boundary — with and without memoization.
    """

    def predicate(mask: int) -> bool:
        return popcount(mask) % 2 == 0

    sequential = CountingOracle(predicate, memoize=memoize)
    batched = CountingOracle(predicate, memoize=memoize)

    expected = [sequential(mask) for mask in masks]

    answers: list[bool] = []
    position = 0
    for cut in cuts:
        answers.extend(batched.batch_query(masks[position : position + cut]))
        position += cut
    for mask in masks[position:]:
        answers.append(batched(mask))

    assert answers == expected
    assert batched.total_calls == sequential.total_calls
    assert batched.evaluations == sequential.evaluations
    assert batched.distinct_queries == sequential.distinct_queries
    assert batched.history() == sequential.history()
