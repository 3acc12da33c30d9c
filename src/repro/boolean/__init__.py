"""Monotone Boolean functions: DNF/CNF forms, dualization, families.

Section 6 of the paper maps data mining onto exact learning of monotone
Boolean functions: interesting sets are the *false* points of a monotone
``f``, maximal interesting sets complement the CNF clauses, and the
negative border gives the DNF terms (Example 25).  This package provides
the function representations that the learning reduction manipulates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.boolean.monotone": (
        "MonotoneCNF",
        "MonotoneDNF",
        "maximal_false_points",
        "minimal_true_points",
    ),
    "repro.boolean.dualization": ("cnf_to_dnf", "dnf_to_cnf", "dual_dnf"),
    "repro.boolean.families": (
        "matching_dnf",
        "planted_cnf_function",
        "random_monotone_dnf",
        "threshold_function",
        "tribes_function",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
