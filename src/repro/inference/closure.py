"""The closure engine: computing ``(x0, X, Sigma)*`` (Theorem 3.1).

The engine decides logical implication of NFDs by computing closures of
path sets, generalizing the classical Armstrong closure to the nested
setting.  It works internally on *simple* NFDs (base = relation name):
``x0:[X -> q]`` is derivable iff its canonical simple form is
(push-in/pull-out, Section 2.3), so every query is first translated via
:func:`repro.nfd.simple_form.to_simple`'s prefix expansion.

For one relation the engine saturates a family of closure queries
``CL(L) = {q : R:[L -> q] derivable}``:

* **reflexivity** seeds ``CL(L)`` with ``L``;
* **transitivity + prefix** — for every *usable* NFD ``[M -> r]``, add
  ``r`` when every ``p in M`` is *covered*: ``p in CL(L)``, or some
  non-empty proper prefix ``p' in CL(L)`` with ``p'`` not a prefix of
  ``r`` (iterated applications of the prefix rule collapse to this single
  test because a prefix of a prefix of ``r`` would itself prefix ``r``);
* **full-locality** — every usable NFD whose RHS extends a set path ``x``
  contributes a localized variant ``[{x} u (M under x) -> r]``, sound
  without empty sets because an NFD with RHS under ``x`` already forces
  within-``x`` agreement via the diagonal pair of Definition 2.4 (see the
  discussion of Example 3.1; localized variants subsume the paper's
  locality rule and, combined with coverage, its full-locality);
* **singleton** — for every set path ``s`` of element type
  ``{<A1..An>}`` and every split ``s = ybar:x``, the NFD
  ``[prefixes(ybar), s:A1..s:An -> s]`` becomes usable once every
  ``s:Ai`` lies in ``CL(prefixes(ybar) u {s})`` — the simple-form image
  of the paper's singleton premises at base ``R:ybar``.

All queries of a relation share the usable-NFD pool and are saturated to
a global fixpoint; monotonicity over the finite path set guarantees
termination.

Every query is answered by one kernel: the dense bitset kernel of
:mod:`repro.inference.dense`, which interns a relation's paths into bit
positions and saturates with integer mask arithmetic.  Proofs need more
than an answer — which usable derived each path, and through which
covering paths — so :meth:`ClosureEngine.explain` and
:func:`~repro.inference.proof_compiler.compile_proof` run a second,
object-level saturation on demand: a semi-naive worklist
(:class:`_ProofRecorder`) that indexes usables by every LHS member and
coverable prefix, keeps a dirty set per query, and records one
justification per derived path.  Both compute the least fixpoint of the
same monotone step operator over the same rule pool, so their closures
coincide (``tests/properties/test_closure_differential.py`` checks them
against the global-rescan reference
:class:`~repro.inference.brute_force.NaiveClosure`).

The usables compiled from Sigma — each member's simple form and its
admissible localized variants — depend only on ``(schema, member,
nonempty)``, never on the rest of Sigma.  They are therefore compiled
once into a :class:`_SigmaPool` tagged by member index and *shared* by
the copy-on-write probe engines :meth:`ClosureEngine.without`,
:meth:`ClosureEngine.with_added`, and :meth:`ClosureEngine.replace`: a
probe masks members in or out of the shared pool and compiles only the
members the pool has never seen, instead of rebuilding the whole pool
per probe.  Saturation state (closure queries, activated singleton
candidates) is per-engine — changing Sigma invalidates derived
closures.  :class:`~repro.inference.session.ImplicationSession` builds
its cross-query memoization and delta probes on these primitives.

Passing a :class:`~repro.inference.empty_sets.NonEmptySpec` switches the
engine to the Section 3.2 rules: prefix shortening requires the shortened
positions to be declared non-empty, and intermediates of a transitivity
step (and paths dropped by localization) must follow the conclusion's RHS
or traverse only declared-non-empty sets.  The coverage check considers
*every* admissible covering path (the member itself or any gated prefix
shortening) and fires when any of them also passes the intermediate
gate — each choice corresponds to a valid gated derivation, and
admitting all of them keeps the step rule monotone in the closure set.
With ``NonEmptySpec.all_nonempty()`` (the default) the gates all pass
and the engine implements the plain Section 3.1 system, which
Theorem 3.1 proves sound and complete.
"""

from __future__ import annotations

import time
from typing import Iterable

from ..errors import InferenceError, NFDError, PathError
from ..nfd.nfd import NFD
from ..nfd.simple_form import to_simple
from ..paths.path import Path
from ..paths.typing import (
    relation_paths,
    resolve_base_path,
    set_paths,
    type_at,
)
from ..types.base import SetType
from ..types.schema import Schema
from .dense import DenseTables, compile_row, compile_tables, mask_paths
from .empty_sets import NonEmptySpec

__all__ = ["ClosureEngine", "EngineStats", "engine_counters",
           "pool_build_count"]

# Process-global work counters, accumulated across every engine ever
# constructed.  Benchmarks and tests snapshot/diff these to assert
# construction bounds ("minimal_cover compiles exactly one pool") and
# total saturation work independent of which engine instance did it.
_COUNTERS = {"pool_builds": 0, "attempts": 0, "saturations": 0}


def engine_counters() -> dict[str, int]:
    """A snapshot of the process-global engine work counters.

    ``pool_builds`` — full Sigma-pool compilations (copy-on-write probes
    share their parent's pool and do not count); ``attempts`` /
    ``saturations`` — rule attempts and saturation calls summed over
    every engine in the process.
    """
    return dict(_COUNTERS)


def pool_build_count() -> int:
    """How many full Sigma pools this process has compiled."""
    return _COUNTERS["pool_builds"]


class EngineStats:
    """A snapshot of the engine's saturation counters.

    Totals are accumulated across every saturation the engine has run
    and are **never reset in place**: to measure a window (one query,
    one analysis pass) take a snapshot before and after and
    :meth:`diff` them.  Per-relation maps reflect the state at snapshot
    time.

    * ``saturations`` — calls to a saturation loop;
    * ``rounds`` — work units: dense fixpoint passes, plus worklist
      items drained while recording proofs;
    * ``attempts`` / ``successes`` — rule attempts (dense row scans,
      plus transitivity-step attempts while recording proofs) and the
      paths they derived;
    * ``wall_time`` — seconds spent inside saturation;
    * ``usables`` / ``candidates`` / ``activated`` — usable-pool size,
      singleton-candidate count, and activated candidates per relation;
    * ``queries`` / ``derived`` — live closure queries and the total
      number of non-seed paths they derived, per relation;
    * ``mask_tests`` — dense-kernel row scans plus batch verdict tests
      (each is at least one bitmask test);
    * ``dense_seeds`` — queries created with a superset seed;
    * ``interned`` — interned universe size per relation.
    """

    __slots__ = ("saturations", "rounds", "attempts", "successes",
                 "wall_time", "usables", "candidates", "activated",
                 "queries", "derived", "mask_tests", "dense_seeds",
                 "interned")

    def __init__(self, saturations: int, rounds: int, attempts: int,
                 successes: int, wall_time: float,
                 usables: dict[str, int], candidates: dict[str, int],
                 activated: dict[str, int], queries: dict[str, int],
                 derived: dict[str, int], mask_tests: int = 0,
                 dense_seeds: int = 0,
                 interned: dict[str, int] | None = None):
        self.saturations = saturations
        self.rounds = rounds
        self.attempts = attempts
        self.successes = successes
        self.wall_time = wall_time
        self.usables = usables
        self.candidates = candidates
        self.activated = activated
        self.queries = queries
        self.derived = derived
        self.mask_tests = mask_tests
        self.dense_seeds = dense_seeds
        self.interned = interned if interned is not None else {}

    #: Monotonic totals (subtracted by :meth:`diff`); the per-relation
    #: maps are point-in-time state and diff to the later snapshot's.
    CUMULATIVE = ("saturations", "rounds", "attempts", "successes",
                  "wall_time", "mask_tests", "dense_seeds")

    def as_dict(self) -> dict:
        """The snapshot as a plain (JSON-friendly) dictionary."""
        return {
            "saturations": self.saturations,
            "rounds": self.rounds,
            "attempts": self.attempts,
            "successes": self.successes,
            "wall_time": self.wall_time,
            "usables": dict(self.usables),
            "candidates": dict(self.candidates),
            "activated": dict(self.activated),
            "queries": dict(self.queries),
            "derived": dict(self.derived),
            "mask_tests": self.mask_tests,
            "dense_seeds": self.dense_seeds,
            "interned": dict(self.interned),
        }

    def as_metrics(self) -> dict:
        """The :class:`~repro.obs.RunReport` section protocol."""
        return self.as_dict()

    def diff(self, baseline: "EngineStats") -> "EngineStats":
        """The work done since *baseline* (an earlier snapshot of the
        same engine): cumulative totals are subtracted, point-in-time
        maps (usables, candidates, activated, queries, derived,
        interned) keep this snapshot's values.  This — not in-place
        resetting — is the reset semantics for engines reused across
        queries."""
        return EngineStats(
            saturations=self.saturations - baseline.saturations,
            rounds=self.rounds - baseline.rounds,
            attempts=self.attempts - baseline.attempts,
            successes=self.successes - baseline.successes,
            wall_time=self.wall_time - baseline.wall_time,
            usables=dict(self.usables),
            candidates=dict(self.candidates),
            activated=dict(self.activated),
            queries=dict(self.queries),
            derived=dict(self.derived),
            mask_tests=self.mask_tests - baseline.mask_tests,
            dense_seeds=self.dense_seeds - baseline.dense_seeds,
            interned=dict(self.interned),
        )

    def to_text(self) -> str:
        interned = ", ".join(
            f"{relation}={self.interned[relation]}"
            for relation in sorted(self.interned)
        ) or "-"
        lines = [
            "engine stats:",
            f"  saturations: {self.saturations}  "
            f"rounds: {self.rounds}",
            f"  apply attempts: {self.attempts}  "
            f"successes: {self.successes}",
            f"  saturation wall time: {self.wall_time:.6f}s",
            f"  mask tests: {self.mask_tests}  "
            f"dense seeds: {self.dense_seeds}  "
            f"interned ids: {interned}",
        ]
        for relation in sorted(self.usables):
            lines.append(
                f"  {relation}: {self.usables[relation]} usable(s), "
                f"{self.activated[relation]}/"
                f"{self.candidates[relation]} candidate(s) active, "
                f"{self.queries[relation]} query(ies), "
                f"{self.derived[relation]} derived path(s)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"EngineStats(attempts={self.attempts}, "
                f"successes={self.successes}, rounds={self.rounds})")


class _Usable:
    """A simple NFD ``[lhs -> rhs]`` in the engine's working pool.

    ``origin`` is one of ``"sigma"``, ``"localized"``, ``"singleton"``;
    ``detail`` carries the provenance: the originating Sigma member (the
    NFD itself — pool usables are shared between engines whose Sigma
    indexes differ, so positional references would not transfer), a
    ``(source usable, localization prefix)`` pair, or the singleton
    candidate, respectively.  Provenance feeds ``ClosureEngine.explain``.
    """

    __slots__ = ("lhs", "rhs", "origin", "detail")

    def __init__(self, lhs: frozenset[Path], rhs: Path, origin: str,
                 detail=None):
        self.lhs = lhs
        self.rhs = rhs
        self.origin = origin
        self.detail = detail

    def key(self) -> tuple[frozenset[Path], Path]:
        return (self.lhs, self.rhs)

    def trigger_paths(self) -> set[Path]:
        """The paths whose arrival in a closure can newly cover the LHS:
        every member plus its non-empty proper prefixes (prefix rule)."""
        triggers: set[Path] = set()
        for member in self.lhs:
            for length in range(1, len(member) + 1):
                triggers.add(member[:length])
        return triggers

    def describe(self, sigma) -> str:
        inner = ", ".join(str(p) for p in sorted(self.lhs)) or "∅"
        body = f"[{inner} -> {self.rhs}]"
        if self.origin == "sigma":
            return f"{body} (Sigma member {self.detail})"
        if self.origin == "localized":
            source, prefix = self.detail
            return (f"{body} (full-locality at {prefix} of "
                    f"{source.describe(sigma)})")
        if self.origin == "singleton":
            return f"{body} (singleton rule on {self.rhs})"
        return body  # pragma: no cover - no other origins exist

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in sorted(self.lhs)) or "∅"
        return f"_Usable([{inner} -> {self.rhs}] from {self.origin})"


class _SingletonCandidate:
    """A gated singleton NFD for set path ``s`` at split base ``ybar``."""

    __slots__ = ("set_path", "split", "premise_lhs", "targets", "usable")

    def __init__(self, set_path: Path, split: Path,
                 premise_lhs: frozenset[Path],
                 targets: frozenset[Path], usable: _Usable):
        self.set_path = set_path
        self.split = split
        self.premise_lhs = premise_lhs
        self.targets = targets
        self.usable = usable

    def key(self) -> tuple[Path, Path]:
        return (self.set_path, self.split)


def _localizations(relation: str, usable: _Usable,
                   nonempty: NonEmptySpec) -> list[_Usable]:
    """Localized variants ``[{x} u (lhs under x) -> rhs]``.

    One variant per non-empty proper prefix ``x`` of the RHS.  In
    non-empty-gated mode a variant is admitted only when every dropped
    LHS path follows the RHS or is always defined.
    """
    variants: list[_Usable] = []
    rhs = usable.rhs
    for length in range(1, len(rhs)):
        x = rhs[:length]
        kept = {p for p in usable.lhs if x.is_proper_prefix_of(p)}
        dropped = usable.lhs - kept - {x}
        if not nonempty.declares_everything:
            admissible = all(
                p.follows(rhs) or
                nonempty.always_defined(relation, p)
                for p in dropped
            )
            if not admissible:
                continue
        variants.append(_Usable(frozenset(kept) | {x}, rhs,
                                "localized", (usable, x)))
    return variants


def _compile_member(nfd: NFD, nonempty: NonEmptySpec) \
        -> tuple[str, list[_Usable]]:
    """One Sigma member's usables: its simple form plus the admissible
    localized variants, deduplicated within the member."""
    simple = to_simple(nfd)
    relation = simple.relation
    main = _Usable(simple.lhs, simple.rhs, "sigma", nfd)
    usables = [main]
    seen = {main.key()}
    for variant in _localizations(relation, main, nonempty):
        if variant.key() not in seen:
            seen.add(variant.key())
            usables.append(variant)
    return relation, usables


def _coverage(nonempty: NonEmptySpec, relation: str, member: Path,
              key: frozenset[Path], closure_set: set[Path],
              rhs: Path) -> Path | None:
    """The covering path to use for one LHS member, or None.

    A covering path is *member* itself, or — through the prefix rule —
    a non-empty proper prefix ``member[:k]`` that is in the closure and
    not a prefix of *rhs*; in gated mode shortening to ``member[:k]``
    additionally requires every shortening result ``member[:j]``,
    ``k <= j < len(member)``, declared non-empty, and any covering path
    must pass the Section 3.2 transitivity gate (be part of the query
    key, follow *rhs*, or be always defined).  All admissible options
    are considered — each corresponds to a valid derivation —
    preferring *member* itself, then the longest admissible prefix.
    The dense kernel compiles exactly these options into its masks
    (:func:`repro.inference.dense.compile_row`).
    """
    gated = not nonempty.declares_everything
    if member in closure_set and (
            not gated or
            _intermediate_ok(nonempty, relation, member, key, rhs)):
        return member
    for k in range(len(member) - 1, 0, -1):
        shortened = member[:k]
        if gated and not nonempty.is_declared(relation, shortened):
            # shortening past this position is gated off, and every
            # shorter prefix would have to shorten through it
            return None
        if shortened in closure_set and \
                not shortened.is_prefix_of(rhs) and (
                    not gated or
                    _intermediate_ok(nonempty, relation, shortened, key,
                                     rhs)):
            return shortened
    return None


def _intermediate_ok(nonempty: NonEmptySpec, relation: str, used: Path,
                     key: frozenset[Path], rhs: Path) -> bool:
    """Section 3.2 transitivity gate for one intermediate path."""
    return used in key or used.follows(rhs) or \
        nonempty.always_defined(relation, used)


def _step(nonempty: NonEmptySpec, relation: str, usable: _Usable,
          key: frozenset[Path], closure_set: set[Path]):
    """One transitivity step of *usable* against the query *key*.

    Returns the covering path of every LHS member as
    ``((member, used), ...)`` when the step adds ``usable.rhs`` to the
    closure, or None when the RHS is already derived or some member is
    uncovered.  The single-step rule shared by the proof recorder and
    the naive reference (:mod:`repro.inference.brute_force`).
    """
    if usable.rhs in closure_set:
        return None
    pairs = []
    for member in usable.lhs:
        used = _coverage(nonempty, relation, member, key, closure_set,
                         usable.rhs)
        if used is None:
            return None
        pairs.append((member, used))
    return tuple(pairs)


class _SigmaPool:
    """The compiled, shareable part of an engine for one root Sigma.

    Everything here is derived member-by-member from ``(schema, Sigma,
    nonempty)`` and never mutated after construction (the dense tables
    are a compile-once cache), so copy-on-write probe engines
    (:meth:`ClosureEngine.without` / ``with_added`` / ``replace``) share
    one pool and mask members in or out instead of recompiling usables
    and tables per probe.  Entries are tagged with the member index they
    came from; an engine filters them against its active-member set.
    """

    __slots__ = ("schema", "nonempty", "paths", "candidates",
                 "candidate_index", "member_usables", "by_relation",
                 "_dense")

    def __init__(self, schema: Schema, sigma: tuple[NFD, ...],
                 nonempty: NonEmptySpec):
        _COUNTERS["pool_builds"] += 1
        self.schema = schema
        self.nonempty = nonempty
        names = schema.relation_names
        self.paths: dict[str, frozenset[Path]] = {
            n: frozenset(relation_paths(schema, n)) for n in names
        }
        self.candidates: dict[str, list[_SingletonCandidate]] = {
            n: [] for n in names
        }
        self.candidate_index: dict[
            str, dict[frozenset[Path], list[_SingletonCandidate]]
        ] = {n: {} for n in names}
        self._build_singleton_candidates(schema)

        # member-tagged usables
        self.member_usables: list[list[_Usable]] = []
        self.by_relation: dict[str, list] = {n: [] for n in names}
        for index, nfd in enumerate(sigma):
            relation, usables = _compile_member(nfd, nonempty)
            self.member_usables.append(usables)
            for usable in usables:
                self.by_relation[relation].append((index, usable))

        # Lazily compiled dense tables, per relation.  A pure cache:
        # the tables depend only on (schema, Sigma members, nonempty),
        # so sharing them between copy-on-write siblings is safe.
        self._dense: dict[str, DenseTables] = {}

    def dense(self, relation: str) -> DenseTables:
        """The relation's dense tables, compiled on first use."""
        tables = self._dense.get(relation)
        if tables is None:
            tables = compile_tables(self, relation)
            self._dense[relation] = tables
        return tables

    def has_dense(self, relation: str) -> bool:
        return relation in self._dense

    def adopt_dense(self, relation: str, tables: DenseTables) -> None:
        """Install externally compiled tables (a persisted copy, or one
        shipped to a worker process) instead of compiling."""
        if relation not in self._dense:
            self._dense[relation] = tables

    def _build_singleton_candidates(self, schema: Schema) -> None:
        for relation in schema.relation_names:
            element = schema.element_type(relation)
            for s in set_paths(schema, relation):
                s_type = type_at(element, s)
                assert isinstance(s_type, SetType)
                attributes = s_type.element.labels
                attribute_paths = frozenset(
                    s.child(label) for label in attributes
                )
                for split_length in range(len(s)):
                    ybar = s[:split_length]
                    prefix_paths = frozenset(
                        ybar[:k] for k in range(1, len(ybar) + 1)
                    )
                    candidate = _SingletonCandidate(
                        s, ybar,
                        premise_lhs=prefix_paths | {s},
                        targets=attribute_paths,
                        usable=None,
                    )
                    candidate.usable = _Usable(
                        prefix_paths | attribute_paths, s, "singleton",
                        candidate,
                    )
                    self.candidates[relation].append(candidate)
                    self.candidate_index[relation].setdefault(
                        candidate.premise_lhs, []).append(candidate)


class _ProofRecorder:
    """One relation's proof-recording saturation, run on demand.

    The object-level semi-naive worklist behind :meth:`ClosureEngine.
    explain` and :func:`~repro.inference.proof_compiler.compile_proof`:
    usables are indexed by every LHS member and by the member prefixes
    that can cover them through the prefix rule, each query keeps a
    dirty set of newly derived paths, and only usables whose LHS
    intersects a delta are re-attempted.  Every derived path records
    the usable that produced it and the covering path of each LHS
    member (``provenance``).  It reaches the same least fixpoint as the
    dense kernel — same step rule, same rule pool — but no query path
    runs it; its activated singleton candidates and runtime usables are
    its own, so it never disturbs the kernel's state.
    """

    __slots__ = ("engine", "relation", "queries", "dirty", "fresh",
                 "new_usables", "activated", "provenance", "registered",
                 "trigger", "empty_lhs")

    def __init__(self, engine: "ClosureEngine", relation: str):
        self.engine = engine
        self.relation = relation
        self.queries: dict[frozenset[Path], set[Path]] = {}
        # pending deltas per query, usables not yet offered to every
        # query, and queries not yet offered the empty-LHS usables
        self.dirty: dict[frozenset[Path], set[Path]] = {}
        self.fresh: list[frozenset[Path]] = []
        self.new_usables: list[_Usable] = []
        self.activated: set = set()
        # query key -> derived path -> (usable, ((member, used), ...))
        self.provenance: dict[frozenset[Path], dict] = {}
        self.registered: set = set()
        self.trigger: dict[Path, list[_Usable]] = {}
        self.empty_lhs: list[_Usable] = []
        for usable in engine._all_usables(relation):
            self._register(usable, broadcast=False)
        for candidate in engine._pool.candidates[relation]:
            self._ensure(candidate.premise_lhs)

    def _register(self, usable: _Usable, broadcast: bool) -> None:
        """Index one usable (the first of several sharing a key wins:
        one attempt per ``(lhs, rhs)`` suffices)."""
        if usable.key() in self.registered:
            return
        self.registered.add(usable.key())
        if usable.lhs:
            for path in usable.trigger_paths():
                self.trigger.setdefault(path, []).append(usable)
        else:
            self.empty_lhs.append(usable)
        if broadcast:
            self.new_usables.append(usable)

    def _ensure(self, key: frozenset[Path]) -> None:
        if key not in self.queries:
            self.queries[key] = set(key)
            self.dirty.setdefault(key, set()).update(key)
            self.fresh.append(key)

    def closure(self, key: frozenset[Path]) -> frozenset[Path]:
        self._ensure(key)
        self.engine._saturate(self.relation, self._drain)
        return frozenset(self.queries[key])

    def _apply(self, key: frozenset[Path], closure_set: set[Path],
               usable: _Usable) -> bool:
        """Try one transitivity step; True if the closure grew."""
        engine = self.engine
        engine._attempts += 1
        _COUNTERS["attempts"] += 1
        pairs = _step(engine.nonempty, self.relation, usable, key,
                      closure_set)
        if pairs is None:
            return False
        closure_set.add(usable.rhs)
        engine._successes += 1
        self.provenance.setdefault(key, {})[usable.rhs] = (usable, pairs)
        return True

    def _drain(self) -> None:
        """Drain deltas through the trigger index.

        Work items, in priority order: broadcast a new usable to every
        query, offer the empty-LHS usables to a fresh query, or process
        one query's delta — re-checking the singleton candidates
        watching that query and re-attempting exactly the usables whose
        LHS (or a coverable prefix of it) intersects the delta.  Every
        path enters a query's delta at most once, so the loop
        terminates, and any step a global rescan could take is attempted
        no later than when the last closure path it needs arrives.
        """
        engine = self.engine
        queries = self.queries
        dirty = self.dirty
        new_usables = self.new_usables
        fresh = self.fresh
        candidate_index = engine._pool.candidate_index[self.relation]
        while dirty or new_usables or fresh:
            engine._rounds += 1
            if new_usables:
                usable = new_usables.pop()
                for key in list(queries):
                    if self._apply(key, queries[key], usable):
                        dirty.setdefault(key, set()).add(usable.rhs)
                continue
            if fresh:
                key = fresh.pop()
                closure_set = queries[key]
                for usable in self.empty_lhs:
                    if self._apply(key, closure_set, usable):
                        dirty.setdefault(key, set()).add(usable.rhs)
                continue
            key, delta = dirty.popitem()
            closure_set = queries[key]
            for candidate in candidate_index.get(key, ()):
                if candidate.key() in self.activated:
                    continue
                if candidate.targets & delta and \
                        candidate.targets <= closure_set:
                    self.activated.add(candidate.key())
                    self._register(candidate.usable, broadcast=True)
                    for variant in _localizations(
                            self.relation, candidate.usable,
                            engine.nonempty):
                        self._register(variant, broadcast=True)
            attempted: set = set()
            for path in delta:
                for usable in self.trigger.get(path, ()):
                    # an rhs already derived needs no attempt; one
                    # attempt per usable per delta suffices
                    if usable.rhs in closure_set or usable in attempted:
                        continue
                    attempted.add(usable)
                    if self._apply(key, closure_set, usable):
                        dirty.setdefault(key, set()).add(usable.rhs)


class _DenseState:
    """One relation's dense saturation state for one engine.

    ``rows`` is the append-only active rule list: the shared tables'
    rows for this engine's active members, the overlay members compiled
    at state creation, then rows appended as singleton candidates
    activate (``pending`` holds the candidates not yet activated).
    ``plain`` holds every row's default ``(rhs_bit, uncond masks)``
    form, which is a valid step for any query key, and every query
    scans it.  On top, each query carries its own *specialized* rows
    (``qrows``) for the rows its key touches: members already covered
    by the key are dropped and ``keyonly`` masks are resolved against
    it up front, so the hot loop tests nothing but ``acc & mask``.
    ``qmark`` is the per-query watermark into ``rows`` (rows appended
    later are specialized on the query's next fixpoint).
    """

    __slots__ = ("tables", "rows", "plain", "acc", "keymask", "qrows",
                 "qmark", "cache", "pending", "unsaturated")

    def __init__(self, tables: DenseTables, rows: list):
        self.tables = tables
        self.rows: list = []
        self.plain: list = []
        self.add_rows(rows)
        self.pending = list(range(len(tables.candidates)))
        self.acc: dict[frozenset[Path], int] = {}
        self.keymask: dict[frozenset[Path], int] = {}
        self.qrows: dict[frozenset[Path], list] = {}
        self.qmark: dict[frozenset[Path], int] = {}
        # query -> (mask at materialization, frozenset) — rebuilt only
        # when the mask has since grown
        self.cache: dict[frozenset[Path], tuple[int, frozenset[Path]]] \
            = {}
        self.unsaturated: list[frozenset[Path]] = []

    def add_rows(self, rows) -> None:
        self.rows.extend(rows)
        self.plain.extend((rhs_bit, default)
                          for rhs_bit, _, _, default in rows
                          if default is not None)


class ClosureEngine:
    """Closure computation and implication for a schema and NFD set.

    Example::

        engine = ClosureEngine(schema, nfds)
        engine.implies(NFD.parse("R:A:[B -> E]"))       # True/False
        engine.closure(parse_path("R:A"), {parse_path("B")})
        engine.explain(NFD.parse("R:A:[B -> E]"))       # why it holds

    The engine caches its saturation state, so asking many queries against
    the same ``(schema, Sigma)`` is cheap after the first.  Queries run on
    the dense bitset kernel; :meth:`explain` (and
    :func:`~repro.inference.proof_compiler.compile_proof`) additionally
    run the proof-recording worklist for the relation they justify.

    Probing nearby Sigmas is copy-on-write: :meth:`without`,
    :meth:`with_added`, and :meth:`replace` return sibling engines that
    share this engine's compiled pool (usables, dense tables, typed path
    sets, singleton candidates) and compile only members the pool has
    never seen.  For cross-query memoization on top of one engine, see
    :class:`~repro.inference.session.ImplicationSession`.
    """

    def __init__(self, schema: Schema, sigma: Iterable[NFD],
                 nonempty: NonEmptySpec | None = None, *,
                 tracer=None, _cow=None):
        self.schema = schema
        self.nonempty = nonempty if nonempty is not None \
            else NonEmptySpec.all_nonempty()
        self.sigma = tuple(sigma)
        # Observability: a repro.obs.Tracer, or None (the default) for
        # the untraced fast path.
        self.tracer = tracer

        if _cow is None:
            for nfd in self.sigma:
                nfd.check_well_formed(schema)
            if tracer is None:
                self._pool = _SigmaPool(schema, self.sigma,
                                        self.nonempty)
            else:
                with tracer.span("closure.compile_pool",
                                 members=len(self.sigma)):
                    self._pool = _SigmaPool(schema, self.sigma,
                                            self.nonempty)
            # own Sigma index -> pool member index (None = overlay)
            self._member_map: tuple = tuple(range(len(self.sigma)))
        else:
            self._pool, self._member_map = _cow
        self._active = frozenset(
            index for index in self._member_map if index is not None
        )

        # Overlay: usables of members added or replaced after the pool
        # was compiled.  They never touch the shared pool, so sibling
        # engines are unaffected.
        self._overlay: dict[str, list[_Usable]] = {
            n: [] for n in schema.relation_names
        }
        seen: set = set()
        for own_index, pool_index in enumerate(self._member_map):
            if pool_index is not None:
                continue
            nfd = self.sigma[own_index]
            nfd.check_well_formed(schema)
            relation, usables = _compile_member(nfd, self.nonempty)
            for usable in usables:
                if (relation, usable.key()) not in seen:
                    seen.add((relation, usable.key()))
                    self._overlay[relation].append(usable)

        # per-relation saturation state, built on first use
        self._dense_states: dict[str, _DenseState] = {}
        self._recorders: dict[str, _ProofRecorder] = {}

        # counters behind the `stats` snapshot
        self._saturations = 0
        self._rounds = 0
        self._attempts = 0
        self._successes = 0
        self._wall_time = 0.0
        self._mask_tests = 0
        self._dense_seeds = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.sigma):
            raise InferenceError(
                f"no Sigma member at index {index}; Sigma has "
                f"{len(self.sigma)} member(s)"
            )

    def without(self, index: int) -> "ClosureEngine":
        """A sibling engine over Sigma minus member *index*.

        Copy-on-write: shares this engine's compiled pool (usables,
        dense tables, typed path sets, singleton candidates) and masks
        the member out, so redundancy and cover computations that probe
        each member against the rest avoid recompiling anything.
        Saturation state is *not* shared — removing a member
        invalidates derived closures.
        """
        self._check_index(index)
        rest = self.sigma[:index] + self.sigma[index + 1:]
        member_map = self._member_map[:index] + \
            self._member_map[index + 1:]
        return ClosureEngine(
            self.schema, rest, self.nonempty, tracer=self.tracer,
            _cow=(self._pool, member_map),
        )

    def with_added(self, nfd: NFD) -> "ClosureEngine":
        """A sibling engine over Sigma plus *nfd* (appended).

        Copy-on-write like :meth:`without`: only the new member is
        compiled; everything else is shared with this engine.
        """
        return ClosureEngine(
            self.schema, self.sigma + (nfd,), self.nonempty,
            tracer=self.tracer,
            _cow=(self._pool, self._member_map + (None,)),
        )

    def replace(self, index: int, nfd: NFD) -> "ClosureEngine":
        """A sibling engine with member *index* replaced by *nfd*.

        Keeps Sigma order (unlike ``without(i).with_added(nfd)``), so
        positional bookkeeping in callers survives the swap.  Only the
        replacement member is compiled.
        """
        self._check_index(index)
        sigma = self.sigma[:index] + (nfd,) + self.sigma[index + 1:]
        member_map = self._member_map[:index] + (None,) + \
            self._member_map[index + 1:]
        return ClosureEngine(
            self.schema, sigma, self.nonempty, tracer=self.tracer,
            _cow=(self._pool, member_map),
        )

    # -- observability -----------------------------------------------------

    def snapshot(self) -> EngineStats:
        """An explicit alias of :attr:`stats`: counters are cumulative
        and never reset in place; measure windows with
        ``engine.snapshot()`` before / after and
        :meth:`EngineStats.diff`."""
        return self.stats

    @property
    def stats(self) -> EngineStats:
        """A point-in-time :class:`EngineStats` snapshot."""
        usables: dict[str, int] = {}
        activated: dict[str, int] = {}
        queries: dict[str, int] = {}
        derived: dict[str, int] = {}
        interned: dict[str, int] = {}
        for relation in self.schema.relation_names:
            state = self._dense_states.get(relation)
            if state is None:
                usables[relation] = sum(
                    1 for _ in self._all_usables(relation))
                activated[relation] = queries[relation] = 0
                derived[relation] = interned[relation] = 0
                continue
            usables[relation] = len(state.rows)
            activated[relation] = \
                len(state.tables.candidates) - len(state.pending)
            queries[relation] = len(state.acc)
            derived[relation] = sum(
                mask.bit_count() - len(key)
                for key, mask in state.acc.items()
            )
            interned[relation] = len(state.tables.paths)
        return EngineStats(
            saturations=self._saturations,
            rounds=self._rounds,
            attempts=self._attempts,
            successes=self._successes,
            wall_time=self._wall_time,
            usables=usables,
            candidates={r: len(c)
                        for r, c in self._pool.candidates.items()},
            activated=activated,
            queries=queries,
            derived=derived,
            mask_tests=self._mask_tests,
            dense_seeds=self._dense_seeds,
            interned=interned,
        )

    # -- pool layering -----------------------------------------------------

    def _all_usables(self, relation: str):
        """Every usable active for this engine: the shared pool masked
        by the active-member set, then the overlay."""
        for member, usable in self._pool.by_relation.get(relation, ()):
            if member in self._active:
                yield usable
        yield from self._overlay[relation]

    # -- saturation ----------------------------------------------------------

    def _saturate(self, relation: str, drain) -> None:
        """Run one saturation loop (*drain*), charging the counters."""
        if self.tracer is None:
            started = time.perf_counter()
            self._saturations += 1
            _COUNTERS["saturations"] += 1
            drain()
            self._wall_time += time.perf_counter() - started
            return
        # When a span is already open (a ``session.miss``, an analysis
        # sweep) the saturation is its 1:1 inner step, so the deltas
        # are charged to that span instead of opening a duplicate one;
        # only a *root* saturation opens its own ``closure.saturate``.
        current = self.tracer.current
        if current is not None:
            self._saturate_counted(current, drain)
            return
        with self.tracer.span("closure.saturate",
                              relation=relation) as span:
            self._saturate_counted(span, drain)

    def _saturate_counted(self, span, drain) -> None:
        """Run one saturation, adding counter deltas to *span*."""
        before_attempts = self._attempts
        before_successes = self._successes
        before_rounds = self._rounds
        started = time.perf_counter()
        self._saturations += 1
        _COUNTERS["saturations"] += 1
        drain()
        self._wall_time += time.perf_counter() - started
        span.add("saturations")
        span.add("attempts", self._attempts - before_attempts)
        span.add("successes", self._successes - before_successes)
        span.add("rounds", self._rounds - before_rounds)

    def forget_query(self, relation: str, key: frozenset[Path]) -> bool:
        """Drop a saturated closure query (memo-eviction support).

        Returns True when the query was dropped.  Singleton premise
        queries are retained — they drive candidate activation and are
        created only once per relation — as are unknown keys.
        """
        if key in self._pool.candidate_index[relation]:
            return False
        state = self._dense_states.get(relation)
        if state is None or key not in state.acc:
            return False
        del state.acc[key]
        del state.keymask[key]
        state.qrows.pop(key, None)
        state.qmark.pop(key, None)
        state.cache.pop(key, None)
        if key in state.unsaturated:  # defensive: never saturated
            state.unsaturated = [k for k in state.unsaturated if k != key]
        return True

    # -- dense kernel ------------------------------------------------------

    def _dense_state(self, relation: str) -> _DenseState:
        state = self._dense_states.get(relation)
        if state is None:
            tables = self._pool.dense(relation)
            rows: list = []
            for index in sorted(self._active):
                rows.extend(tables.member_rows[index])
            for usable in self._overlay[relation]:
                rows.append(compile_row(tables.ids, relation,
                                        usable.lhs, usable.rhs,
                                        self.nonempty))
            state = _DenseState(tables, rows)
            self._dense_states[relation] = state
            # the singleton premise queries drive candidate activation
            for candidate in self._pool.candidates[relation]:
                if candidate.premise_lhs not in state.acc:
                    self._dense_query(state, relation,
                                      candidate.premise_lhs)
        return state

    @staticmethod
    def _interned(state: _DenseState, relation: str, paths) -> int:
        """The mask of *paths* in the relation's interned universe."""
        ids = state.tables.ids
        mask = 0
        for path in paths:
            bit = ids.get(path)
            if bit is None:
                raise InferenceError(
                    f"path {path} is not well-typed in relation "
                    f"{relation!r}")
            mask |= 1 << bit
        return mask

    def _dense_query(self, state: _DenseState, relation: str,
                     key: frozenset[Path], seed: int | None = None) \
            -> None:
        """Create a dense query: intern the key, OR in the seed mask."""
        keymask = self._interned(state, relation, key)
        accmask = keymask
        if seed is not None:
            self._dense_seeds += 1
            accmask |= seed
        state.acc[key] = accmask
        state.keymask[key] = keymask
        state.qrows[key] = []
        state.qmark[key] = 0
        state.unsaturated.append(key)

    def _drain_dense(self, state: _DenseState) -> None:
        """Saturate via the interned-bitmask kernel.

        New queries run their own mask fixpoint; singleton candidates
        activate when their premise query's accumulator covers the
        target mask, appending precompiled rows to the active list and
        re-running every query's fixpoint (per-query watermarks pick up
        exactly the appended rows).  The alternation repeats until no
        activation fires and no query grows — the least fixpoint of the
        monotone step operator over the rule pool.
        """
        acc = state.acc
        while True:
            progress = False
            while state.unsaturated:
                key = state.unsaturated.pop()
                if self._dense_fixpoint(state, key):
                    progress = True
            if state.pending:
                still: list[int] = []
                for index in state.pending:
                    premise_key, target_mask, rows, _ = \
                        state.tables.candidates[index]
                    if acc.get(premise_key, 0) & target_mask \
                            == target_mask:
                        state.add_rows(rows)
                    else:
                        still.append(index)
                if len(still) < len(state.pending):
                    state.pending = still
                    # new rows may fire anywhere: revisit every query
                    state.unsaturated.extend(acc)
                    progress = True
            if not progress:
                return

    def _dense_fixpoint(self, state: _DenseState,
                        key: frozenset[Path]) -> bool:
        """Run one query's mask fixpoint; True if the closure grew."""
        active = state.rows
        qrows = state.qrows[key]
        mark = state.qmark[key]
        if mark < len(active):
            # specialize the rows appended since the last visit that the
            # key touches: members covered by the key drop out, keyonly
            # masks resolve now (every query also scans the shared
            # default rows, valid for any key)
            keymask = state.keymask[key]
            for rhs_bit, members, union, _ in active[mark:]:
                if not keymask & union:
                    continue
                masks = []
                dead = False
                for uncond, keyonly in members:
                    if (uncond & keymask) or (keyonly & keymask):
                        continue  # covered from the seed on
                    if not uncond:
                        dead = True  # key-gated options can never open
                        break
                    masks.append(uncond)
                if not dead:
                    qrows.append((rhs_bit, masks))
            state.qmark[key] = len(active)
        acc = state.acc[key]
        start = acc
        passes = 0
        scans = 0
        # work on the rows not yet fired for this query; each pass
        # drops the rows that fired, so late passes scan only the tail
        # (specialized rows first: a default row whose specialized twin
        # fired earlier in the pass is then skipped with one test)
        pending = [row for row in qrows if not acc & row[0]]
        pending += [row for row in state.plain if not acc & row[0]]
        progress = True
        while progress and pending:
            progress = False
            passes += 1
            scans += len(pending)
            remaining = []
            for row in pending:
                if acc & row[0]:
                    continue  # a sibling row already derived this rhs
                for mask in row[1]:
                    if not acc & mask:
                        remaining.append(row)
                        break
                else:
                    acc |= row[0]
                    progress = True
            pending = remaining
        self._rounds += passes
        self._attempts += scans
        self._mask_tests += scans
        _COUNTERS["attempts"] += scans
        if acc == start:
            return False
        state.acc[key] = acc
        self._successes += (acc ^ start).bit_count()
        return True

    def _dense_result(self, state: _DenseState,
                      key: frozenset[Path]) -> frozenset[Path]:
        """Materialize a saturated dense query back into paths."""
        mask = state.acc[key]
        cached = state.cache.get(key)
        if cached is not None and cached[0] == mask:
            return cached[1]
        result = mask_paths(state.tables.paths, mask)
        state.cache[key] = (mask, result)
        return result

    # -- public API -----------------------------------------------------------

    def closure_simple(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``CL(L)`` at a relation-name base: all derivable RHS paths.

        The result contains the seed paths themselves (reflexivity) and
        is restricted to well-typed paths of the relation.
        """
        return self.closure_simple_seeded(relation, lhs, ())

    def closure_simple_seeded(self, relation: str, lhs: Iterable[Path],
                              seed: Iterable[Path]) -> frozenset[Path]:
        """``CL(L)``, saturated starting from a pre-derived *seed*.

        *seed* must contain only paths already known to lie in
        ``CL(L)`` — typically a cached closure of a subset of *L*
        (monotonicity: ``X ⊆ Y`` implies ``CL(X) ⊆ CL(Y)`` in both the
        plain and the gated systems, because enlarging the query key
        only loosens the Section 3.2 gates).  Passing paths outside
        ``CL(L)`` is unsound and the engine does not check for it.
        :class:`~repro.inference.session.ImplicationSession` uses this
        for cross-query seed reuse.
        """
        if relation not in self.schema:
            raise InferenceError(f"unknown relation {relation!r}")
        key = frozenset(lhs)
        state = self._dense_state(relation)
        if key not in state.acc:
            seed = frozenset(seed)
            self._dense_query(state, relation, key,
                              self._interned(state, relation, seed)
                              if seed else None)
        self._saturate(relation, lambda: self._drain_dense(state))
        return self._dense_result(state, key)

    def proof_closure(self, relation: str, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``CL(L)`` computed by the proof-recording worklist.

        Equal to :meth:`closure_simple` (same rules, same fixpoint), but
        every derived path keeps a recorded justification — the state
        :meth:`explain` and
        :func:`~repro.inference.proof_compiler.compile_proof` read.
        Slower than the dense kernel; no query path uses it.
        """
        if relation not in self.schema:
            raise InferenceError(f"unknown relation {relation!r}")
        key = frozenset(lhs)
        for path in key:
            if path not in self._pool.paths[relation]:
                raise InferenceError(
                    f"path {path} is not well-typed in relation "
                    f"{relation!r}")
        return self._recorder(relation).closure(key)

    def _recorder(self, relation: str) -> _ProofRecorder:
        recorder = self._recorders.get(relation)
        if recorder is None:
            recorder = _ProofRecorder(self, relation)
            self._recorders[relation] = recorder
        return recorder

    def _push_in(self, base: Path, lhs: Iterable[Path]):
        """The simple-form translation of a closure query at *base*:
        ``(relation, ybar, lhs_set, simple_lhs)``."""
        try:
            resolve_base_path(self.schema, base)
        except PathError as exc:
            raise InferenceError(f"bad closure base: {exc}") from exc
        relation = base.first
        ybar = base.tail
        lhs_set = frozenset(lhs)
        prefix_paths = {ybar[:k] for k in range(1, len(ybar) + 1)}
        simple_lhs = prefix_paths | {ybar.concat(x) for x in lhs_set}
        return relation, ybar, lhs_set, frozenset(simple_lhs)

    def _pull_out(self, base: Path, relation: str, ybar: Path,
                  lhs_set: frozenset[Path],
                  simple_closure: frozenset[Path]) -> frozenset[Path]:
        """The local reading of a saturated simple closure, applying the
        gated pull-out rules of Section 3.2 when needed."""
        if ybar.is_empty:
            # relation-name base: stripping an empty prefix is the
            # identity and the closure never contains the empty path,
            # so the simple closure IS the local reading
            return simple_closure
        result = frozenset(
            p.strip_prefix(ybar) for p in simple_closure
            if ybar.is_proper_prefix_of(p)
        )
        if self.nonempty.declares_everything:
            return result
        # Base-chain gate: a set at depth >= 2 of the chain can be empty
        # in one branch while a sibling branch carries a live local
        # constraint, so those positions must be declared non-empty.
        # The first level is exempt: one branch point per tuple means
        # emptiness there kills the tuple's local constraints entirely,
        # which the simple form's excusal matches exactly.
        chain_defined = all(
            self.nonempty.is_declared(relation, ybar[:k])
            for k in range(2, len(ybar) + 1)
        )
        lhs_defined = chain_defined and all(
            self.nonempty.always_defined(relation, p, base_tail=ybar)
            for p in lhs_set
        )
        gated: set[Path] = set()
        for q in result:
            if q in lhs_set:
                gated.add(q)  # reflexivity needs no gate
            elif lhs_defined and self.nonempty.always_defined(
                    relation, q, base_tail=ybar):
                gated.add(q)
            elif self._stated_at_base(base, lhs_set, q):
                gated.add(q)
        return frozenset(gated)

    def closure(self, base: Path, lhs: Iterable[Path]) \
            -> frozenset[Path]:
        """``(x0, X, Sigma)*`` relative to the base path *x0*.

        Returns the relative paths ``q`` such that ``x0:[X -> q]`` is
        derivable, computed through the simple-form translation::

            x0:[X -> q]  <=>  R:[prefixes(ybar), ybar:X -> ybar:q]

        :raises InferenceError: when *base* is empty, does not start
            with a relation name of the schema, or does not reach a
            set-valued position.

        In gated (Section 3.2) mode the backward direction of that
        equivalence — pull-out — needs its own definedness gate: with
        empty sets, Definition 2.4's trivially-true clause can excuse a
        *simple-form* pair because of an undefined branch in one element
        of the base set while the *local* form still constrains a
        sibling element.  A simple-form derivation therefore only
        transfers to the local reading when every LHS path and the
        conclusion traverse only sets declared non-empty (inside the
        base's elements); NFDs stated at this exact base in Sigma are
        additionally honoured directly (augmentation is sound under
        empty sets).
        """
        relation, ybar, lhs_set, simple_lhs = self._push_in(base, lhs)
        simple_closure = self.closure_simple(relation, simple_lhs)
        return self._pull_out(base, relation, ybar, lhs_set,
                              simple_closure)

    def closure_many(self, queries) -> list[frozenset[Path]]:
        """Batch :meth:`closure`: one result per ``(base, lhs)`` pair.

        Answers are identical to mapping :meth:`closure` over the
        batch, but the engine visits the simple-form keys in subset
        order (ascending size, then canonical text) and seeds each
        saturation from the already-computed closures of its drop-one
        subsets — sound by monotonicity of ``CL`` exactly as in
        :meth:`closure_simple_seeded` — so a sweep of overlapping
        queries pays for the *new* derivations only.  Results come back
        in input order.
        """
        prepared = []
        for base, lhs in queries:
            relation, ybar, lhs_set, simple_lhs = \
                self._push_in(base, lhs)
            prepared.append((base, relation, ybar, lhs_set, simple_lhs))
        order = sorted(
            range(len(prepared)),
            key=lambda i: (len(prepared[i][4]),
                           tuple(sorted(str(p) for p in prepared[i][4])))
        )
        computed: dict[tuple[str, frozenset[Path]], frozenset[Path]] = {}
        for i in order:
            _, relation, _, _, simple_lhs = prepared[i]
            slot = (relation, simple_lhs)
            if slot in computed:
                continue
            # drop-one probes: sub-combinations sort earlier, so their
            # closures are already computed; each CL(key - {p}) is a
            # subset of CL(key), and so is their union
            seed: frozenset[Path] | None = None
            for path in simple_lhs:
                sub = computed.get((relation, simple_lhs - {path}))
                if sub is not None:
                    seed = sub if seed is None else seed | sub
            computed[slot] = self.closure_simple_seeded(
                relation, simple_lhs, seed if seed is not None else ())
        return [
            self._pull_out(base, relation, ybar, lhs_set,
                           computed[(relation, simple_lhs)])
            for base, relation, ybar, lhs_set, simple_lhs in prepared
        ]

    def covers_many(self, queries_base: Path, candidates,
                    targets: Iterable[Path]) -> list[bool]:
        """Batch verdicts: does ``closure(base, candidate)`` contain
        every path of *targets*, for each candidate?

        Answers equal ``[targets <= closure(base, c) for c in
        candidates]``.  At a relation-name base each verdict is read
        straight off the saturated accumulator mask — no closure is
        ever materialized back into path objects, which is the dominant
        non-kernel cost of a key sweep.  Nested bases, whose pull-out
        gating needs the path-level reading, route through
        :meth:`closure_many`.
        """
        target_set = frozenset(targets)
        prepared = [frozenset(candidate) for candidate in candidates]
        if queries_base.tail.is_empty \
                and queries_base.first in self.schema:
            return self._covers_many_dense(queries_base.first, prepared,
                                           target_set)
        closures = self.closure_many(
            [(queries_base, candidate) for candidate in prepared])
        return [target_set <= closed for closed in closures]

    def _covers_many_dense(self, relation: str,
                           keys: list[frozenset[Path]],
                           targets: frozenset[Path]) -> list[bool]:
        """Mask-only sweep: saturate the candidates one size level at a
        time (smallest first) with drop-one mask seeding, then answer
        every verdict with one ``acc & target == target`` test."""
        state = self._dense_state(relation)
        target_mask = self._interned(state, relation, targets)
        acc = state.acc
        drain = lambda: self._drain_dense(state)  # noqa: E731
        size = None
        for key in sorted(keys, key=len):
            if key in acc:
                continue
            if len(key) != size:
                # the smaller keys seed this size level: saturate them
                # first, then the whole level in one saturation
                if state.unsaturated:
                    self._saturate(relation, drain)
                size = len(key)
            # drop-one probes: sub-combinations are already saturated;
            # their masks are sound seeds by monotonicity of CL
            seed = None
            for path in key:
                sub = acc.get(key - {path})
                if sub is not None:
                    seed = sub if seed is None else seed | sub
            self._dense_query(state, relation, key, seed)
        if state.unsaturated:
            self._saturate(relation, drain)
        self._mask_tests += len(keys)
        return [acc[key] & target_mask == target_mask for key in keys]

    def _stated_at_base(self, base: Path, lhs_set: frozenset[Path],
                        q: Path) -> bool:
        """Is ``base:[lhs -> q]`` a (possibly augmented) Sigma member?"""
        return any(
            nfd.base == base and nfd.rhs == q and nfd.lhs <= lhs_set
            for nfd in self.sigma
        )

    def implies(self, nfd: NFD) -> bool:
        """Decide ``Sigma |= nfd`` (Definition 3.1) via the closure."""
        try:
            nfd.check_well_formed(self.schema)
        except NFDError as exc:
            raise InferenceError(str(exc)) from exc
        return nfd.rhs in self.closure(nfd.base, nfd.lhs)

    def implies_all(self, nfds: Iterable[NFD]) -> bool:
        """True iff every NFD in *nfds* is implied."""
        return all(self.implies(nfd) for nfd in nfds)

    def usable_pool(self, relation: str) -> list[tuple[frozenset[Path],
                                                       Path, str]]:
        """Introspection: the Sigma-derived usable pool (for debugging)."""
        return [(u.lhs, u.rhs, u.origin)
                for u in self._all_usables(relation)]

    # -- explanations ------------------------------------------------------------

    def explain(self, nfd: NFD) -> "Explanation":
        """A human-readable justification of why *nfd* is implied.

        Runs the proof-recording worklist for the NFD's simple form and
        reconstructs the saturation steps from its provenance: each
        derived path points at the usable NFD that produced it (a Sigma
        member, a full-locality variant, or a gated singleton NFD) and,
        recursively, at the justifications of the paths its LHS needed.
        Raises :class:`InferenceError` when the NFD is not implied.
        """
        if not self.implies(nfd):
            raise InferenceError(
                f"{nfd} is not implied; ask find_countermodel for a "
                "separating instance instead"
            )
        relation = nfd.relation
        simple = to_simple(nfd)
        key = frozenset(simple.lhs)
        self.proof_closure(relation, key)
        return Explanation(self, nfd, relation, key, simple.rhs)


class Explanation:
    """A lazy justification tree over the engine's recorded provenance."""

    def __init__(self, engine: ClosureEngine, nfd: NFD, relation: str,
                 key: frozenset[Path], target: Path):
        self.engine = engine
        self.nfd = nfd
        self.relation = relation
        self.key = key
        self.target = target

    def to_text(self) -> str:
        lines = [f"{self.nfd} holds:"]
        if len(self.nfd.base) > 1:
            simple = to_simple(self.nfd)
            lines.append(
                f"  in simple form (push-in): {simple}"
            )
        seen: set[tuple] = set()
        provenance = self.engine._recorder(self.relation).provenance
        self._justify(provenance, self.target, self.key, 1, lines, seen)
        return "\n".join(lines)

    def _justify(self, provenance: dict, path: Path,
                 key: frozenset[Path], depth: int, lines: list[str],
                 seen: set[tuple]) -> None:
        pad = "  " * depth
        slot = (key, path)
        if path in key:
            lines.append(f"{pad}{path} is given (reflexivity)")
            return
        if slot in seen:
            lines.append(f"{pad}{path}: shown above")
            return
        seen.add(slot)
        record = provenance.get(key, {}).get(path)
        if record is None:  # pragma: no cover - defensive
            lines.append(f"{pad}{path}: (no recorded step)")
            return
        usable, member_pairs = record
        lines.append(
            f"{pad}{path} by transitivity with "
            f"{usable.describe(self.engine.sigma)}"
        )
        if usable.origin == "singleton":
            candidate = usable.detail
            lines.append(
                f"{pad}  singleton premises: every attribute of "
                f"{candidate.set_path} is determined by the set "
                f"(closure of {sorted(map(str, candidate.premise_lhs))})"
            )
        for member, used in member_pairs:
            if used != member:
                lines.append(
                    f"{pad}  {member} covered via its prefix {used} "
                    "(prefix rule)"
                )
            self._justify(provenance, used, key, depth + 1, lines, seen)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Explanation(of={self.nfd})"
