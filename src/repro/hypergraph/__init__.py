"""Hypergraphs and minimal-transversal (dualization) algorithms.

This package is the substrate behind Theorem 7 of the paper: for problems
representable as sets, the negative border of a theory is the preimage of
the minimal transversals of the complement hypergraph of its positive
border.  Everything downstream — Dualize and Advance, the exact learner,
functional-dependency inference — calls into this package.

Engines provided:

* :mod:`repro.hypergraph.berge` — classic Berge multiplication, the simple
  reference algorithm (exponential in the worst case, fine in practice).
* :mod:`repro.hypergraph.fredman_khachiyan` — the Fredman–Khachiyan
  duality test, which powers *incremental* enumeration: a non-duality
  witness is converted into a fresh minimal transversal (Corollary 22's
  engine).
* :mod:`repro.hypergraph.levelwise_transversal` — the paper's new special
  case (Corollary 15): input-polynomial transversals when every edge has
  at least ``n - k`` vertices with ``k = O(log n)``.
* :mod:`repro.hypergraph.mmcs` — the MMCS branch-and-bound
  enumerator (arXiv:1805.01310), the practical engine at
  data-profiling scale.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.hypergraph.certification": (
        "TransversalCertificate",
        "certify_transversal_family",
    ),
    "repro.hypergraph.hypergraph": (
        "Hypergraph",
        "NonSimpleHypergraphError",
        "minimize_family",
    ),
    "repro.hypergraph.berge": (
        "berge_transversal_masks",
        "transversal_hypergraph",
    ),
    "repro.hypergraph.fredman_khachiyan": (
        "DualityWitness",
        "check_duality",
        "find_new_minimal_transversal",
    ),
    "repro.hypergraph.mmcs": ("mmcs_transversal_masks",),
    "repro.hypergraph.enumeration": (
        "brute_force_transversal_masks",
        "iter_minimal_transversals",
        "minimal_transversals",
        "minimize_transversal_mask",
    ),
    "repro.hypergraph.levelwise_transversal": (
        "levelwise_transversal_masks",
    ),
    "repro.hypergraph.generators": (
        "complete_k_uniform_hypergraph",
        "large_edge_hypergraph",
        "matching_hypergraph",
        "matching_transversal_count",
        "path_hypergraph",
        "random_simple_hypergraph",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
