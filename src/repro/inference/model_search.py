"""Bounded semantic countermodel search: a rule-independent oracle.

The closure engine and the brute-force prover both reason *syntactically*
with the paper's rules.  This module attacks implication *semantically*:
it searches for a small instance that satisfies ``Sigma`` but violates a
candidate NFD.  Finding one refutes implication outright (soundness side);
finding none within the budget is evidence — not proof — of implication.

Two search strategies are combined:

* the Appendix-A construction (deterministic, and exact when Theorem 3.1
  applies: it separates whenever the closure says "not implied");
* randomized search over small instances with tiny atom domains, which is
  independent of the closure and therefore also guards against bugs in
  the construction itself.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..nfd.batch_validate import ValidatorEngine
from ..nfd.nfd import NFD
from ..types.schema import Schema
from ..values.build import Instance
from .closure import ClosureEngine
from .countermodel import build_countermodel

__all__ = ["search_countermodel", "semantic_implication_verdict"]


def search_countermodel(schema: Schema, sigma: Iterable[NFD],
                        candidate: NFD, rng: random.Random,
                        attempts: int = 300, tuples: int = 2,
                        domain: int = 2, max_set_size: int = 2,
                        use_construction: bool = True) -> Instance | None:
    """Search for an empty-set-free instance with ``I |= Sigma``,
    ``I |/= candidate``.

    Tries the Appendix-A construction first (when *use_construction*),
    then randomized instances.  Returns the first separator found or
    None.
    """
    from ..generators.instances import random_instance

    sigma_list = list(sigma)
    candidate.check_well_formed(schema)
    # compiled once, reused by every instance the search tries
    satisfies_sigma = ValidatorEngine(schema, sigma_list).check
    satisfies_candidate = ValidatorEngine(schema, [candidate]).check

    if use_construction:
        engine = ClosureEngine(schema, sigma_list)
        if not engine.implies(candidate):
            built = build_countermodel(engine, candidate.base,
                                       candidate.lhs)
            if satisfies_sigma(built) and not satisfies_candidate(built):
                return built
            # The construction failed to separate; fall through to the
            # random search rather than silently trusting it.

    for _ in range(attempts):
        instance = random_instance(rng, schema, tuples=tuples,
                                   domain=domain,
                                   max_set_size=max_set_size,
                                   empty_probability=0.0)
        if not satisfies_sigma(instance):
            continue
        if not satisfies_candidate(instance):
            return instance
    return None


def semantic_implication_verdict(schema: Schema, sigma: Iterable[NFD],
                                 candidate: NFD, rng: random.Random,
                                 attempts: int = 300) -> bool:
    """True when no countermodel was found (implication *probably* holds).

    A False verdict is definitive — a separator exists.  A True verdict
    is only as strong as the search budget; the property tests use it to
    cross-examine the closure engine in both directions.
    """
    return search_countermodel(schema, sigma, candidate, rng,
                               attempts=attempts) is None
