"""The paper's data mining framework (Sections 2 and 3).

Given a database ``r``, a language ``L`` with a monotone specialization
relation ``⪯``, and an interestingness predicate ``q``, the task is the
theory ``Th(L, r, q) = {φ ∈ L : q(r, φ)}`` and in particular its maximal
elements ``MTh`` (Problem 1, *MaxTh*).  This package defines:

* the sentence/language abstractions (generic, and the subset-lattice
  specialization that every "representable as sets" problem reduces to);
* counting ``Is-interesting`` oracles — the paper's model of computation,
  where data is only reachable through interestingness queries;
* positive/negative borders and their transversal characterization
  (Theorem 7);
* the verification problem (Problem 3) solved with exactly ``|Bd(S)|``
  queries (Corollary 4).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.errors": (
        "BudgetExhausted",
        "CheckpointError",
        "MonotonicityError",
        "ReproError",
        "RepresentationError",
    ),
    "repro.core.language": ("GenericLanguage", "SetLanguage"),
    "repro.core.oracle": (
        "CountingOracle",
        "GenericCountingOracle",
        "MonotonicityCheckingOracle",
    ),
    "repro.core.borders": (
        "border",
        "downward_closure",
        "negative_border_brute_force",
        "negative_border_from_positive",
        "positive_border",
    ),
    "repro.core.theory": ("Theory", "compute_theory_brute_force"),
    "repro.core.representation": (
        "IdentityRepresentation",
        "SetRepresentationProtocol",
        "check_representation",
    ),
    "repro.core.verification": ("VerificationResult", "verify_maxth"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
