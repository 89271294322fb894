"""Inference: the eight rules, closure engine, and oracles."""

from . import rules
from .armstrong import (
    FD,
    armstrong_relation,
    attribute_closure,
    attribute_closure_many,
    closed_sets,
    fd_implies,
    fd_to_nfd,
    is_flat_relation,
    nfd_to_fd,
)
from .brute_force import BruteForceProver, NaiveClosure
from .closure import ClosureEngine, EngineStats, Explanation
from .dense import DenseTables, compile_tables
from .countermodel import (
    CountermodelBuilder,
    build_countermodel,
    find_countermodel,
)
from .derivation import Derivation, Step
from .empty_sets import (
    NonEmptySpec,
    prefix_nonempty,
    transitivity_nonempty,
)
from .implication import (
    closure,
    equivalent_sets,
    implied_keys,
    implies,
    redundant_members,
)
from .model_search import search_countermodel, semantic_implication_verdict
from .mvds import (
    MVD,
    dependency_basis,
    implies_fd_mixed,
    implies_mvd,
    satisfies_mvd,
)
from .proof_compiler import compile_proof
from .session import ImplicationSession, SessionStats, sigma_fingerprint
from .simple_rules import (
    SIMPLE_RULE_NAMES,
    full_locality,
    to_simple_system,
    uses_only_simple_rules,
)

__all__ = [
    "rules",
    "ClosureEngine",
    "EngineStats",
    "Explanation",
    "DenseTables",
    "compile_tables",
    "ImplicationSession",
    "SessionStats",
    "sigma_fingerprint",
    "Derivation",
    "Step",
    "BruteForceProver",
    "NaiveClosure",
    "CountermodelBuilder",
    "build_countermodel",
    "find_countermodel",
    "NonEmptySpec",
    "transitivity_nonempty",
    "prefix_nonempty",
    "implies",
    "closure",
    "equivalent_sets",
    "redundant_members",
    "implied_keys",
    "search_countermodel",
    "compile_proof",
    "semantic_implication_verdict",
    "full_locality",
    "to_simple_system",
    "uses_only_simple_rules",
    "SIMPLE_RULE_NAMES",
    "FD",
    "MVD",
    "dependency_basis",
    "implies_mvd",
    "implies_fd_mixed",
    "satisfies_mvd",
    "attribute_closure",
    "attribute_closure_many",
    "armstrong_relation",
    "closed_sets",
    "fd_implies",
    "nfd_to_fd",
    "fd_to_nfd",
    "is_flat_relation",
]
