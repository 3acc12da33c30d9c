"""Data substrates: transaction databases, relations, event sequences.

The paper's experiments-by-proxy (it cites the empirical study [11] on
proprietary census data) are replaced here by synthetic generators that
exercise identical code paths — every mining algorithm in this library
touches data only through ``Is-interesting`` queries, the paper's model
of computation, so query-count results carry over by construction.
"""

from repro.datasets.categorical import (
    encode_relation,
    generate_categorical_relation,
)
from repro.datasets.transactions import BACKENDS, TransactionDatabase
from repro.datasets.baskets import ColumnarBuilder, read_baskets_csv
from repro.datasets.fimi import read_fimi, read_fimi_stream, write_fimi
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.planted import (
    PlantedTheory,
    random_planted_theory,
)
from repro.datasets.relations import (
    Relation,
    generate_relation_with_keys,
)
from repro.datasets.sequences import EventSequence, generate_event_sequence

__all__ = [
    "encode_relation",
    "generate_categorical_relation",
    "BACKENDS",
    "TransactionDatabase",
    "ColumnarBuilder",
    "read_baskets_csv",
    "read_fimi",
    "read_fimi_stream",
    "write_fimi",
    "QuestParameters",
    "generate_quest_database",
    "PlantedTheory",
    "random_planted_theory",
    "Relation",
    "generate_relation_with_keys",
    "EventSequence",
    "generate_event_sequence",
]
