"""Reference oracles for the closure engine.

The closure engine of :mod:`repro.inference.closure` answers queries
with a compiled bitset kernel and records proofs with an indexed
worklist.  This module holds the two slow references the tests and
benchmarks compare it against:

* :class:`BruteForceProver` — the ground truth for what the inference
  rules can derive.  It enumerates the entire (finite) space of NFDs
  over a schema — every base path, every LHS subset, every RHS — and
  applies the eight rules of Section 3.1 *plus* full-locality
  (Section 3.2) to a fixpoint; see the inline comment in ``_saturate``
  for why full-locality is required for the system to match the
  semantic implication that Theorem 3.1's completeness promises.  The
  space is exponential in the number of paths, so construction guards
  against large schemas (``max_paths``).
* :class:`NaiveClosure` — the engine's own rule system saturated the
  obvious way: a global rescan of every usable NFD against every query
  until nothing changes.  It scales like the engine (no enumeration of
  the NFD space), so the differential suites and
  ``benchmarks/bench_scaling_closure.py`` use it where brute force
  cannot reach, and its step count is the baseline the engine's
  indexing is measured against.

Neither is meant for production queries.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable

from ..errors import InferenceError
from ..nfd.nfd import NFD
from .closure import ClosureEngine, _localizations, _step
from .empty_sets import NonEmptySpec
from .simple_rules import full_locality
from ..paths.path import Path
from ..paths.typing import resolve_base_path, set_paths, type_at
from ..types.base import SetType
from ..types.schema import Schema

__all__ = ["BruteForceProver", "NaiveClosure"]

_Key = tuple[Path, frozenset[Path]]


class BruteForceProver:
    """Fixpoint of the eight rules over the full NFD space of a schema."""

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 max_paths: int = 7):
        self.schema = schema
        self.sigma = tuple(sigma)
        for nfd in self.sigma:
            nfd.check_well_formed(schema)

        # Enumerate all base paths: every relation name plus every
        # set-valued path inside it.
        self._bases: list[Path] = []
        self._scope_paths: dict[Path, tuple[Path, ...]] = {}
        for relation in schema.relation_names:
            relation_base = Path((relation,))
            bases = [relation_base] + [
                relation_base.concat(p) for p in set_paths(schema, relation)
            ]
            for base in bases:
                scope = resolve_base_path(schema, base)
                paths = tuple(sorted(self._paths_of_record(scope)))
                if len(paths) > max_paths:
                    raise InferenceError(
                        f"base {base} scopes {len(paths)} paths; the "
                        f"brute-force space is exponential — limit is "
                        f"{max_paths}"
                    )
                self._bases.append(base)
                self._scope_paths[base] = paths

        # derived[(base, lhs)] = set of derivable RHS paths.
        self._derived: dict[_Key, set[Path]] = {}
        for base in self._bases:
            paths = self._scope_paths[base]
            for size in range(len(paths) + 1):
                for combo in combinations(paths, size):
                    lhs = frozenset(combo)
                    self._derived[(base, lhs)] = set(lhs)  # reflexivity
        for nfd in self.sigma:
            self._add(nfd)
        self._saturate()

    @staticmethod
    def _paths_of_record(record) -> list[Path]:
        found: list[Path] = []

        def recurse(rec, prefix: Path) -> None:
            for label, field_type in rec.fields:
                here = prefix.child(label)
                found.append(here)
                if isinstance(field_type, SetType):
                    recurse(field_type.element, here)

        recurse(record, Path(()))
        return found

    # -- fact management ------------------------------------------------------

    def _add(self, nfd: NFD) -> bool:
        key = (nfd.base, nfd.lhs)
        bucket = self._derived.get(key)
        if bucket is None:
            # An NFD outside the enumerated space (e.g. ill-typed LHS)
            # cannot arise from rule application to well-formed inputs.
            raise InferenceError(f"{nfd} is outside the enumerated space")
        if nfd.rhs in bucket:
            return False
        bucket.add(nfd.rhs)
        return True

    def _facts(self) -> list[NFD]:
        return [
            NFD(base, lhs, rhs)
            for (base, lhs), bucket in self._derived.items()
            for rhs in bucket
        ]

    # -- the fixpoint -----------------------------------------------------------

    def _saturate(self) -> None:
        from . import rules as r

        changed = True
        while changed:
            changed = False
            facts = self._facts()

            # augmentation: one path at a time walks the subset lattice.
            for (base, lhs), bucket in list(self._derived.items()):
                for extra in self._scope_paths[base]:
                    if extra in lhs:
                        continue
                    bigger = (base, lhs | {extra})
                    target = self._derived[bigger]
                    for rhs in bucket:
                        if rhs not in target:
                            target.add(rhs)
                            changed = True

            # transitivity: bridge [Z -> y] fires on any X deriving Z.
            for (base, bridge_lhs), bridge_bucket in list(
                    self._derived.items()):
                for (base2, lhs), bucket in list(self._derived.items()):
                    if base2 != base:
                        continue
                    if not all(z in bucket for z in bridge_lhs):
                        continue
                    for y in bridge_bucket:
                        if y not in bucket:
                            bucket.add(y)
                            changed = True

            # the structural rules, applied fact by fact.
            for fact in facts:
                # push-in
                if not fact.is_simple:
                    changed |= self._add(r.push_in(fact))
                # pull-out
                try:
                    changed |= self._add(r.pull_out(fact))
                except Exception:
                    pass
                # locality
                try:
                    changed |= self._add(r.locality(fact))
                except Exception:
                    pass
                # prefix: try to shorten every eligible LHS path.
                for path in fact.lhs:
                    if len(path) < 2:
                        continue
                    try:
                        changed |= self._add(r.prefix(fact, path))
                    except Exception:
                        pass
                # full-locality (Section 3.2): the literal eight rules
                # cannot remove the base-chain prefixes that push-in
                # introduces on the LHS, yet Example 3.1 and the
                # completeness claim of Theorem 3.1 require that power
                # (e.g. R:[A:B, A:B:C -> A:B:E] is semantically implied
                # by R:[A:B:C, A:D -> A:B:E] but unreachable without
                # it).  We therefore saturate with full-locality as
                # well, matching the six-rule simple system the paper
                # proves equivalent.
                for length in range(1, len(fact.rhs)):
                    x = fact.rhs[:length]
                    try:
                        changed |= self._add(full_locality(fact, x))
                    except Exception:
                        pass

            # singleton: for each base and set path with all attributes
            # derivable from {x}.
            for base in self._bases:
                scope = resolve_base_path(self.schema, base)
                for x in self._scope_paths[base]:
                    x_type = type_at(scope, x)
                    if not isinstance(x_type, SetType):
                        continue
                    attributes = x_type.element.labels
                    attr_paths = [x.child(a) for a in attributes]
                    singleton_bucket = self._derived[(base,
                                                      frozenset({x}))]
                    if all(p in singleton_bucket for p in attr_paths):
                        conclusion = NFD(base, attr_paths, x)
                        changed |= self._add(conclusion)

    # -- queries -----------------------------------------------------------------

    def closure(self, base: Path, lhs: Iterable[Path]) -> frozenset[Path]:
        """All derivable RHS paths for the query ``(base, lhs)``."""
        key = (base, frozenset(lhs))
        if key not in self._derived:
            raise InferenceError(
                f"query {key[0]}:[{sorted(map(str, key[1]))}] is outside "
                "the enumerated space"
            )
        return frozenset(self._derived[key])

    def implies(self, nfd: NFD) -> bool:
        """Is *nfd* derivable by the eight rules?"""
        return nfd.rhs in self.closure(nfd.base, nfd.lhs)


class NaiveClosure:
    """The reference global fixpoint of the closure engine's rules.

    Every saturation rescans every singleton candidate and re-attempts
    every usable NFD against every closure query of the relation until
    a full round changes nothing — no trigger index, no deltas, no
    bitmasks.  It shares the engine's compiled rule pool (Sigma members'
    simple forms, localized variants, singleton candidates), its
    object-level single-step rule, and its simple-form translation, so
    it computes the same closures as
    :class:`~repro.inference.closure.ClosureEngine` by a different
    route.  ``attempts`` / ``successes`` / ``wall_time`` count its step
    work.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 nonempty: NonEmptySpec | None = None):
        self._engine = ClosureEngine(schema, sigma, nonempty)
        self.schema = schema
        self.nonempty = self._engine.nonempty
        self.attempts = 0
        self.successes = 0
        self.wall_time = 0.0
        names = schema.relation_names
        self._queries: dict[str, dict[frozenset[Path], set[Path]]] = {
            n: {} for n in names}
        self._usables = {n: list(self._engine._all_usables(n))
                         for n in names}
        self._pending = {n: list(self._engine._pool.candidates[n])
                         for n in names}

    def closure_simple(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``CL(lhs)`` at a relation-name base."""
        if relation not in self.schema:
            raise InferenceError(f"unknown relation {relation!r}")
        key = frozenset(lhs)
        queries = self._queries[relation]
        if key not in queries:
            queries[key] = set(key)
        started = time.perf_counter()
        self._saturate(relation)
        self.wall_time += time.perf_counter() - started
        return frozenset(queries[key])

    def _saturate(self, relation: str) -> None:
        queries = self._queries[relation]
        usables = self._usables[relation]
        while True:
            changed = False
            still = []
            for candidate in self._pending[relation]:
                premise = queries.setdefault(candidate.premise_lhs,
                                             set(candidate.premise_lhs))
                if candidate.targets <= premise:
                    usables.append(candidate.usable)
                    usables.extend(_localizations(
                        relation, candidate.usable, self.nonempty))
                    changed = True
                else:
                    still.append(candidate)
            self._pending[relation] = still
            for key, closure_set in queries.items():
                for usable in usables:
                    self.attempts += 1
                    if _step(self.nonempty, relation, usable, key,
                             closure_set) is not None:
                        closure_set.add(usable.rhs)
                        self.successes += 1
                        changed = True
            if not changed:
                return

    def closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``(base, lhs, Sigma)*`` through the engine's simple-form
        translation and gated pull-out."""
        engine = self._engine
        relation, ybar, lhs_set, simple_lhs = engine._push_in(base, lhs)
        return engine._pull_out(base, relation, ybar, lhs_set,
                                self.closure_simple(relation,
                                                    simple_lhs))

    def implies(self, nfd: NFD) -> bool:
        """Decide ``Sigma |= nfd`` via the reference closure."""
        nfd.check_well_formed(self.schema)
        return nfd.rhs in self.closure(nfd.base, nfd.lhs)
