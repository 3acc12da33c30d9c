"""Checkpoint/resume: interrupted runs must be invisible in the output.

The headline property (the PR-2 acceptance criterion): interrupt
``levelwise`` or ``dualize_and_advance`` at *any* query budget, resume
from the JSON checkpoint, and the final theory, borders, and query
accounting are bit-identical to the uninterrupted run.  Hypothesis
drives both the planted theory and the interruption point.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import CheckpointError
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.instances.frequent_itemsets import mine_frequent_itemsets
from repro.mining.dualize_advance import dualize_and_advance
from repro.mining.levelwise import levelwise
from repro.core.oracle import CountingOracle
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.runtime.partial import PartialResult
from repro.util.bitset import Universe

from tests.conftest import planted_theories


def _interrupt_levelwise(planted, cut):
    """Run levelwise with a query budget; expect a resumable partial."""
    return levelwise(
        planted.universe,
        planted.is_interesting,
        budget=Budget(max_queries=cut),
    )


class TestLevelwiseResume:
    @given(planted=planted_theories(max_attributes=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_resume_equals_uninterrupted(self, planted, data):
        universe = planted.universe
        baseline = levelwise(universe, planted.is_interesting)
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = _interrupt_levelwise(planted, cut)
        assert isinstance(partial, PartialResult)
        assert partial.checkpoint is not None

        # Round-trip the checkpoint through its JSON wire format.
        restored = Checkpoint.from_json(partial.checkpoint.to_json())
        resumed = levelwise(universe, planted.is_interesting, resume=restored)

        assert resumed.maximal == baseline.maximal
        assert resumed.negative_border == baseline.negative_border
        assert resumed.interesting == baseline.interesting
        assert resumed.queries == baseline.queries
        assert resumed.levels == baseline.levels

    @given(planted=planted_theories(max_attributes=6), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_double_interruption_still_converges(self, planted, data):
        """Checkpoint, resume under a second budget, checkpoint again."""
        universe = planted.universe
        baseline = levelwise(universe, planted.is_interesting)
        assume(baseline.queries >= 3)
        first = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 2),
            label="first_cut",
        )
        partial = _interrupt_levelwise(planted, first)
        assert isinstance(partial, PartialResult)
        second = data.draw(
            st.integers(
                min_value=partial.queries + 1, max_value=baseline.queries - 1
            ),
            label="second_cut",
        )
        middle = levelwise(
            universe,
            planted.is_interesting,
            budget=Budget(max_queries=second),
            resume=partial.checkpoint,
        )
        if isinstance(middle, PartialResult):
            final = levelwise(
                universe, planted.is_interesting, resume=middle.checkpoint
            )
        else:
            final = middle
        assert final.maximal == baseline.maximal
        assert final.negative_border == baseline.negative_border
        assert final.queries == baseline.queries

    def test_resume_from_file(self, tmp_path, figure1_universe, figure1_theory):
        baseline = levelwise(figure1_universe, figure1_theory.is_interesting)
        partial = _interrupt_levelwise(figure1_theory, 5)
        assert isinstance(partial, PartialResult)
        path = tmp_path / "ck.json"
        partial.checkpoint.save(path)
        resumed = levelwise(
            figure1_universe, figure1_theory.is_interesting, resume=str(path)
        )
        assert resumed.maximal == baseline.maximal
        assert resumed.queries == baseline.queries

    def test_partial_accounting_matches_checkpoint(self, figure1_theory):
        partial = _interrupt_levelwise(figure1_theory, 5)
        assert isinstance(partial, PartialResult)
        assert partial.queries == partial.checkpoint.accounting["queries"]
        assert len(partial.checkpoint.history) == partial.queries


class TestDualizeAdvanceResume:
    @given(
        planted=planted_theories(max_attributes=6),
        engine=st.sampled_from(["berge", "fk"]),
        incremental=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_equals_uninterrupted(
        self, planted, engine, incremental, seed, data
    ):
        universe = planted.universe
        kwargs = dict(engine=engine, incremental=incremental, shuffle=seed)
        baseline = dualize_and_advance(
            universe, planted.is_interesting, **kwargs
        )
        assume(baseline.queries >= 2)
        cut = data.draw(
            st.integers(min_value=1, max_value=baseline.queries - 1),
            label="cut",
        )
        partial = dualize_and_advance(
            universe,
            planted.is_interesting,
            budget=Budget(max_queries=cut),
            **kwargs,
        )
        if not isinstance(partial, PartialResult):
            # The budget landed inside the final atomic unit; the run
            # finished.  It must still match the baseline exactly.
            assert partial.maximal == baseline.maximal
            return
        restored = Checkpoint.from_json(partial.checkpoint.to_json())
        resumed = dualize_and_advance(
            universe, planted.is_interesting, resume=restored, **kwargs
        )
        assert resumed.maximal == baseline.maximal
        assert resumed.negative_border == baseline.negative_border
        assert resumed.queries == baseline.queries
        assert resumed.iterations == baseline.iterations

    def test_resume_engine_mismatch_rejected(self, figure1_theory):
        universe = figure1_theory.universe
        partial = dualize_and_advance(
            universe,
            figure1_theory.is_interesting,
            engine="berge",
            budget=Budget(max_queries=3),
        )
        assert isinstance(partial, PartialResult)
        with pytest.raises(CheckpointError):
            dualize_and_advance(
                universe,
                figure1_theory.is_interesting,
                engine="fk",
                resume=partial.checkpoint,
            )


class TestCheckpointFormat:
    def test_json_round_trip_preserves_everything(self, figure1_theory):
        partial = _interrupt_levelwise(figure1_theory, 5)
        checkpoint = partial.checkpoint
        restored = Checkpoint.from_json(checkpoint.to_json())
        assert restored.algorithm == checkpoint.algorithm
        assert restored.universe_items == checkpoint.universe_items
        assert restored.state == checkpoint.state
        assert restored.history == checkpoint.history
        assert restored.accounting == checkpoint.accounting

    def test_malformed_json_rejected(self):
        with pytest.raises(CheckpointError):
            Checkpoint.from_json("{not json")

    def test_version_mismatch_rejected(self, figure1_theory):
        partial = _interrupt_levelwise(figure1_theory, 5)
        payload = json.loads(partial.checkpoint.to_json())
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError):
            Checkpoint.from_json(json.dumps(payload))

    def test_wrong_algorithm_rejected(self, figure1_theory):
        universe = figure1_theory.universe
        partial = _interrupt_levelwise(figure1_theory, 5)
        with pytest.raises(CheckpointError):
            dualize_and_advance(
                universe,
                figure1_theory.is_interesting,
                resume=partial.checkpoint,
            )

    def test_wrong_universe_rejected(self, figure1_theory):
        partial = _interrupt_levelwise(figure1_theory, 5)
        other = Universe("WXYZQ")
        with pytest.raises(CheckpointError):
            levelwise(
                other, figure1_theory.is_interesting, resume=partial.checkpoint
            )

    def test_max_rank_conflict_rejected(self, figure1_theory):
        universe = figure1_theory.universe
        partial = levelwise(
            universe,
            figure1_theory.is_interesting,
            max_rank=3,
            budget=Budget(max_queries=5),
        )
        assert isinstance(partial, PartialResult)
        with pytest.raises(CheckpointError):
            levelwise(
                universe,
                figure1_theory.is_interesting,
                max_rank=2,
                resume=partial.checkpoint,
            )


class TestPredicateRecord:
    """A checkpoint names the predicate its transcript answers."""

    @pytest.fixture
    def database(self):
        return generate_quest_database(
            QuestParameters(n_items=14, n_transactions=200), seed=7
        )

    @pytest.mark.parametrize("algorithm", ["levelwise", "dualize_advance"])
    def test_resume_under_another_threshold_is_refused(
        self, database, algorithm
    ):
        partial = mine_frequent_itemsets(
            database, 0.7, algorithm=algorithm, budget=Budget(max_queries=10)
        )
        assert isinstance(partial, PartialResult)
        assert partial.checkpoint.predicate == "support >= 140 of 200 rows"
        with pytest.raises(CheckpointError, match="predicate="):
            mine_frequent_itemsets(
                database, 0.6, algorithm=algorithm, resume=partial.checkpoint
            )
        text = partial.checkpoint.to_json()
        assert mine_frequent_itemsets(
            database, 140, algorithm=algorithm, resume=text
        ) == mine_frequent_itemsets(database, 0.7, algorithm=algorithm)

    def test_unnamed_oracle_and_unrecorded_checkpoint_resume(
        self, figure1_theory
    ):
        universe = figure1_theory.universe
        baseline = levelwise(universe, figure1_theory.is_interesting)
        partial = _interrupt_levelwise(figure1_theory, 5)
        assert partial.checkpoint.predicate is None
        named = CountingOracle(figure1_theory.is_interesting, name="figure 1")
        assert levelwise(universe, named, resume=partial.checkpoint) == (
            baseline
        )
        partial = levelwise(universe, CountingOracle(
            figure1_theory.is_interesting, name="figure 1"
        ), budget=Budget(max_queries=5))
        assert partial.checkpoint.predicate == "figure 1"
        assert levelwise(
            universe, figure1_theory.is_interesting, resume=partial.checkpoint
        ) == baseline
