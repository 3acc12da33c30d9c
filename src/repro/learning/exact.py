"""The Dualize-and-Advance exact learner (Corollaries 28 and 29).

Run Algorithm 16 against ``q = ¬f``; its ``MTh`` complements are the CNF
clauses and its negative border the DNF terms, so one mining run yields
*both* canonical representations.  Query count: at most
``|CNF(f)| · (|DNF(f)| + n²)`` membership queries (Corollary 28); with
the Fredman–Khachiyan engine the running time is sub-exponential in
``|DNF| + |CNF|`` (Corollary 29).  The paper notes the same result
follows from the Bshouty et al. construction with the NP-oracle replaced
by an HTR routine — this implementation *is* that replacement, made
concrete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.boolean.monotone import MonotoneCNF, MonotoneDNF
from repro.learning.correspondence import (
    cnf_from_maximal_sets,
    dnf_from_negative_border,
    interestingness_from_membership,
)
from repro.learning.oracles import MembershipOracle
from repro.mining.dualize_advance import dualize_and_advance
from repro.util.bitset import Universe


@dataclass(frozen=True)
class LearnResult:
    """Output of an exact-learning run.

    Attributes:
        dnf: the learned DNF — provably equivalent to the target.
        cnf: the learned CNF — provably equivalent to the target.
        queries: distinct membership queries spent.
        iterations: mining iterations (``|CNF(f)| + 1`` for D&A).
    """

    dnf: MonotoneDNF
    cnf: MonotoneCNF
    queries: int
    iterations: int

    def dnf_size(self) -> int:
        """``|DNF(f)|`` — number of prime implicants."""
        return len(self.dnf)

    def cnf_size(self) -> int:
        """``|CNF(f)|`` — number of prime implicates."""
        return len(self.cnf)


def learn_monotone_function(
    oracle: MembershipOracle,
    universe: Universe,
    engine: str = "fk",
    seed: int | random.Random | None = None,
) -> LearnResult:
    """Exactly learn a monotone function from membership queries alone.

    Args:
        oracle: the ``MQ(f)`` oracle hiding the target.
        universe: the variable universe (``n`` comes from here).
        engine: transversal engine for the underlying Dualize and
            Advance (``"fk"`` realizes the Corollary 29 bound).
        seed: optional RNG seed for the greedy extension order.

    Returns:
        A :class:`LearnResult` whose DNF and CNF both compute ``f``
        exactly — the correctness of Algorithm 16 (Lemma 18) is the
        correctness proof of the learner.
    """
    start = oracle.queries
    predicate = interestingness_from_membership(oracle)
    mined = dualize_and_advance(universe, predicate, engine=engine, shuffle=seed)
    return LearnResult(
        dnf=dnf_from_negative_border(universe, mined.negative_border),
        cnf=cnf_from_maximal_sets(universe, mined.maximal),
        queries=oracle.queries - start,
        iterations=len(mined.iterations),
    )
