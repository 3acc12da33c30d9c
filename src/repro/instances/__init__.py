"""Concrete MaxTh instances named in Section 2 of the paper.

Each module maps one problem into the framework — a universe, a monotone
interestingness predicate, and (where it exists) the representation as
sets — and offers both the oracle-based mining route and, for
dependencies, the direct agree-set route of [16] that the paper's
Section 5 closing remark describes.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.instances.armstrong": (
        "FunctionalDependency",
        "armstrong_relation",
        "fd_closure",
        "implied_fds",
        "implies",
        "max_sets",
    ),
    "repro.instances.frequent_itemsets": (
        "FrequencyPredicate",
        "mine_frequent_itemsets",
    ),
    "repro.instances.functional_dependencies": (
        "fd_lhs_via_agree_sets",
        "key_interestingness_predicate",
        "mine_minimal_keys",
        "minimal_keys_via_agree_sets",
    ),
    "repro.instances.inclusion_dependencies": (
        "InclusionPredicate",
        "mine_inclusion_dependencies",
        "unary_inclusion_dependencies",
    ),
    "repro.instances.episodes": (
        "EpisodeLanguage",
        "ParallelEpisodePredicate",
        "SerialEpisodePredicate",
        "attempt_set_representation",
        "mine_parallel_episodes",
        "mine_serial_episodes",
    ),
    "repro.instances.episode_rules": (
        "EpisodeRule",
        "episode_rules_from_frequencies",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
