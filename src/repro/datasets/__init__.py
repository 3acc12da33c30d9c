"""Data substrates: transaction databases, relations, event sequences.

The paper's experiments-by-proxy (it cites the empirical study [11] on
proprietary census data) are replaced here by synthetic generators that
exercise identical code paths — every mining algorithm in this library
touches data only through ``Is-interesting`` queries, the paper's model
of computation, so query-count results carry over by construction.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.datasets.categorical": (
        "encode_relation",
        "generate_categorical_relation",
    ),
    "repro.datasets.transactions": ("BACKENDS", "TransactionDatabase"),
    "repro.datasets.baskets": ("ColumnarBuilder", "read_baskets_csv"),
    "repro.datasets.fimi": ("read_fimi", "read_fimi_stream", "write_fimi"),
    "repro.datasets.synthetic": ("QuestParameters", "generate_quest_database"),
    "repro.datasets.planted": ("PlantedTheory", "random_planted_theory"),
    "repro.datasets.relations": ("Relation", "generate_relation_with_keys"),
    "repro.datasets.sequences": ("EventSequence", "generate_event_sequence"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
