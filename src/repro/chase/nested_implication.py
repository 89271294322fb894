"""An experimental chase-based implication test for NFDs.

The paper's future work proposes chasing *nested tableaux* with NFDs;
this module implements the natural first cut: build the most general
two-element instance for the query (the Appendix-A construction with an
empty Sigma, so only the LHS paths are shared), chase it into
Sigma-satisfaction with the repair procedure, and read the candidate off
the result.

The procedure is **one-sided**:

* a *"not implied"* answer is certified — the chased instance is a
  concrete Sigma-satisfying countermodel (returned for inspection);
* an *"implied"* answer is heuristic — the repair equates values
  *globally*, which can merge more than the dependencies force (e.g.
  two ``A`` sets whose members became equal even though a genuine model
  could give one set an extra member), so the chased instance may
  satisfy candidates that are not actually implied.

Empirically the heuristic agrees with the sound-and-complete closure
engine on the overwhelming majority of random queries (see
``tests/test_chase_implication.py``, which also pins down a concrete
over-approximation case).  Treat :class:`ChaseVerdict` accordingly: use
``certified`` before trusting ``implied``.
"""

from __future__ import annotations

from typing import Iterable

from ..inference.closure import ClosureEngine
from ..inference.countermodel import build_countermodel
from ..nfd.batch_validate import ValidatorEngine
from ..nfd.nfd import NFD
from ..types.schema import Schema
from ..values.build import Instance
from .nested_repair import repair

__all__ = ["ChaseVerdict", "chase_implies"]


class ChaseVerdict:
    """The outcome of a chase-based implication test."""

    __slots__ = ("candidate", "implied", "certified", "instance")

    def __init__(self, candidate: NFD, implied: bool, certified: bool,
                 instance: Instance):
        self.candidate = candidate
        #: The chase's answer to "is the candidate implied?".
        self.implied = implied
        #: True when the answer is proof-backed: a "not implied" with
        #: its countermodel.  An ``implied`` verdict is never certified
        #: by the chase alone — confirm with the closure engine.
        self.certified = certified
        #: The chased instance: a Sigma-satisfying countermodel when
        #: not implied; the (possibly over-merged) generic model
        #: otherwise.
        self.instance = instance

    def __repr__(self) -> str:
        kind = "certified" if self.certified else "heuristic"
        return (f"ChaseVerdict({self.candidate}: implied={self.implied} "
                f"[{kind}])")


def chase_implies(schema: Schema, sigma: Iterable[NFD],
                  candidate: NFD) -> ChaseVerdict:
    """Chase the generic instance of the candidate's query with Sigma.

    The generic instance shares values exactly on the candidate's LHS
    (two elements at the base, fresh values elsewhere); the repair chase
    then equates whatever Sigma forces.  If the result still violates
    the candidate, no amount of merging was able to force the RHS — the
    violation witnesses a genuine countermodel.
    """
    sigma_list = list(sigma)
    candidate.check_well_formed(schema)
    generic_engine = ClosureEngine(schema, [])
    generic = build_countermodel(generic_engine, candidate.base,
                                 candidate.lhs)
    chased = repair(generic, sigma_list)
    holds = ValidatorEngine(schema, [candidate]).check(chased)
    return ChaseVerdict(candidate, implied=holds, certified=not holds,
                        instance=chased)
