"""Exact learning of monotone Boolean functions (Section 6).

Theorem 24: computing interesting sentences for problems representable
as sets ≡ learning monotone functions with membership queries.  This
package realizes the equivalence as executable reductions:

* :mod:`repro.learning.oracles` — counting membership-query oracles;
* :mod:`repro.learning.correspondence` — the two-way translation between
  (MTh, Bd-) and (CNF, DNF), Example 25 made code;
* :mod:`repro.learning.exact` — the Dualize-and-Advance learner of
  Corollaries 28/29, emitting both DNF and CNF;
* :mod:`repro.learning.levelwise_learner` — the Corollary 26 learner for
  monotone CNFs whose clauses have ≥ n − O(log n) variables.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.learning.oracles": ("MembershipOracle",),
    "repro.learning.correspondence": (
        "cnf_from_maximal_sets",
        "dnf_from_negative_border",
        "interestingness_from_membership",
        "maximal_sets_from_cnf",
        "membership_from_interestingness",
        "negative_border_from_dnf",
    ),
    "repro.learning.exact": ("LearnResult", "learn_monotone_function"),
    "repro.learning.levelwise_learner": ("learn_short_complement_cnf",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
