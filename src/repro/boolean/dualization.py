"""DNF ↔ CNF conversion and dualization of monotone functions.

For a monotone function ``f`` with prime implicants ``P`` (DNF terms):

* the prime implicates (CNF clauses) are ``Tr(P)``, and
* the dual ``f^d(x) = ¬f(¬x)`` has prime implicants ``Tr(P)`` as well,

so every conversion here is a minimal-transversal computation (Berge by
default, any engine on request).  Example 25 of the paper is the running
instance: ``f = AD ∨ CD`` has ``CNF(f) = (A∨C)(D)`` because
``Tr({AD, CD}) = {AC, D}``.
"""

from __future__ import annotations

from repro.boolean.monotone import MonotoneCNF, MonotoneDNF
from repro.hypergraph.enumeration import minimal_transversals
from repro.hypergraph.hypergraph import Hypergraph


def _transversals_of(terms: tuple[int, ...], universe, method: str) -> list[int]:
    hypergraph = Hypergraph(universe, terms, validate=False)
    return minimal_transversals(hypergraph, method=method)


def dnf_to_cnf(dnf: MonotoneDNF, method: str = "berge") -> MonotoneCNF:
    """The canonical CNF of a monotone DNF (clauses = ``Tr(terms)``).

    Constants round-trip: ``false`` becomes the empty-clause CNF and
    ``true`` the empty conjunction.
    """
    if dnf.is_constant_false():
        return MonotoneCNF.constant(dnf.universe, False)
    if dnf.is_constant_true():
        return MonotoneCNF.constant(dnf.universe, True)
    clauses = _transversals_of(dnf.terms, dnf.universe, method)
    return MonotoneCNF(dnf.universe, clauses)


def cnf_to_dnf(cnf: MonotoneCNF, method: str = "berge") -> MonotoneDNF:
    """The canonical DNF of a monotone CNF (terms = ``Tr(clauses)``)."""
    if cnf.is_constant_true():
        return MonotoneDNF.constant(cnf.universe, True)
    if cnf.is_constant_false():
        return MonotoneDNF.constant(cnf.universe, False)
    terms = _transversals_of(cnf.clauses, cnf.universe, method)
    return MonotoneDNF(cnf.universe, terms)


def dual_dnf(dnf: MonotoneDNF, method: str = "berge") -> MonotoneDNF:
    """The dual function ``f^d(x) = ¬f(V \\ x)`` as a DNF.

    Dualization is an involution (``dual(dual(f)) = f``), which the test
    suite asserts property-based.  The dual's terms coincide with
    ``f``'s CNF clauses, so this shares the transversal computation.
    """
    if dnf.is_constant_false():
        return MonotoneDNF.constant(dnf.universe, True)
    if dnf.is_constant_true():
        return MonotoneDNF.constant(dnf.universe, False)
    terms = _transversals_of(dnf.terms, dnf.universe, method)
    return MonotoneDNF(dnf.universe, terms)
