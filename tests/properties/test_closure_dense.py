"""Differential tests: the dense bitset kernel vs. the object-level paths.

The engine's dense kernel interns each relation's path universe into
contiguous bit positions and saturates with pure integer mask
arithmetic, but it computes the least fixpoint of the *same* monotone
single-step operator as the engine's proof-recording worklist and the
:class:`~repro.inference.NaiveClosure` reference — so all three must
agree exactly: on every closure (simple, relation-name base, nested
base), on every implication verdict, and on every minimal-key sweep, in
the plain Section 3.1 mode, the fully-gated Section 3.2 mode, and under
partial non-empty declarations.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized cases across the modes) independent
of hypothesis profiles; a hypothesis wrapper adds shrinking on failure.
The batch APIs (``closure_many`` / ``closure_batch`` / ``covers_many``)
are checked against their mapped one-query-at-a-time reading, and the
pickled-dense-tables parallel key sweep against the serial one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import minimal_keys
from repro.generators import random_schema, random_sigma, workloads
from repro.inference import (
    ClosureEngine,
    ImplicationSession,
    NaiveClosure,
    NonEmptySpec,
)
from repro.nfd import NFD
from repro.paths import Path, relation_paths, set_paths

SEEDS_PER_MODE = 60
QUERIES_PER_CASE = 3


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4), max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    return rng, schema, sigma, relation, paths


def _partial_spec(rng: random.Random, schema, relation: str) \
        -> NonEmptySpec:
    declared = {Path((relation,))}
    for p in set_paths(schema, relation):
        if rng.random() < 0.5:
            declared.add(Path((relation,)).concat(p))
    return NonEmptySpec(declared)


def _check_dense_agreement(seed: int, gated: bool) -> None:
    rng, schema, sigma, relation, paths = _draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    dense = ClosureEngine(schema, sigma, nonempty=spec)
    naive = NaiveClosure(schema, sigma, nonempty=spec)
    base = Path((relation,))
    for _ in range(QUERIES_PER_CASE):
        lhs = frozenset(rng.sample(paths,
                                   min(len(paths), rng.randint(0, 2))))
        simple = dense.closure_simple(relation, lhs)
        assert simple == naive.closure_simple(relation, lhs), \
            (sigma, spec, lhs)
        assert simple == dense.proof_closure(relation, lhs), \
            (sigma, spec, lhs)
        closed = dense.closure(base, lhs)
        assert closed == naive.closure(base, lhs), (sigma, spec, lhs)
        # implication verdicts: one implied RHS, one arbitrary RHS
        for rhs in [*list(closed)[:1], *rng.sample(paths, 1)]:
            if rhs in lhs:
                continue
            nfd = NFD(base, lhs, rhs)
            assert dense.implies(nfd) == naive.implies(nfd), \
                (sigma, spec, nfd)
    # nested bases exercise the simple-form translation and, in gated
    # mode, the pull-out gate of ClosureEngine.closure
    nested = list(set_paths(schema, relation))
    for tail in nested[:2]:
        nested_base = base.concat(tail)
        assert dense.closure(nested_base, ()) == \
            naive.closure(nested_base, ()), (sigma, spec, nested_base)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_dense_equals_object_strategies_plain(seed):
    _check_dense_agreement(seed, gated=False)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_dense_equals_object_strategies_gated(seed):
    _check_dense_agreement(seed, gated=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.booleans())
def test_dense_equals_object_strategies_hypothesis(seed, gated):
    """Shrinkable variant of the seed sweep above."""
    _check_dense_agreement(seed, gated)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("reading", ["dense", "worklist"])
def test_closure_many_matches_mapped_closure(seed, reading):
    """The batch API answers exactly like one-at-a-time closure calls
    on a fresh engine (so neither order nor seeding can leak) — read
    off the dense kernel, or off the proof-recording worklist."""
    rng, schema, sigma, relation, paths = _draw(seed)
    base = Path((relation,))
    queries = []
    for _ in range(6):
        lhs = frozenset(rng.sample(paths,
                                   min(len(paths), rng.randint(0, 3))))
        queries.append((base, lhs))
    batch = ClosureEngine(schema, sigma).closure_many(queries)
    single = ClosureEngine(schema, sigma)
    if reading == "dense":
        assert batch == [single.closure(b, lhs) for b, lhs in queries]
    else:
        assert batch == [single.proof_closure(relation, lhs)
                         for _, lhs in queries]


@pytest.mark.parametrize("seed", range(20))
def test_session_batches_match_engine(seed):
    """closure_batch and covers_batch agree with the mapped reading."""
    rng, schema, sigma, relation, paths = _draw(seed)
    base = Path((relation,))
    candidates = [
        frozenset(rng.sample(paths, min(len(paths), rng.randint(0, 2))))
        for _ in range(5)
    ]
    targets = rng.sample(paths, min(len(paths), 2))
    session = ImplicationSession(schema, sigma)
    closures = session.closure_batch([(base, c) for c in candidates])
    fresh = ImplicationSession(schema, sigma)
    assert closures == [fresh.closure(base, c) for c in candidates]
    assert session.covers_batch(base, candidates, targets) == [
        all(t in closed for t in targets) for closed in closures
    ]


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("gated", [False, True])
def test_dense_keys_match_object_strategies(seed, gated):
    rng, schema, sigma, relation, paths = _draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    keys = minimal_keys(schema, sigma, relation, nonempty=spec)
    assert keys == minimal_keys(schema, sigma, relation, nonempty=spec,
                                engine=NaiveClosure(schema, sigma, spec))


class TestParallelDenseSweep:
    """jobs=2 workers adopt the driver's pickled dense tables and must
    reproduce the serial sweep byte-for-byte."""

    def test_parallel_dense_sweep_identical(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        serial = minimal_keys(schema, sigma, "Course")
        parallel = minimal_keys(schema, sigma, "Course", jobs=2)
        assert parallel == serial
        assert repr(sorted(map(sorted, parallel))) == \
            repr(sorted(map(sorted, serial)))
        assert serial == minimal_keys(schema, sigma, "Course",
                                      engine=NaiveClosure(schema, sigma))

    def test_parallel_dense_sweep_identical_gated(self):
        from repro.paths import parse_path
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        spec = NonEmptySpec({parse_path("Course")})
        serial = minimal_keys(schema, sigma, "Course", nonempty=spec)
        assert minimal_keys(schema, sigma, "Course", nonempty=spec,
                            jobs=2) == serial
        assert serial == minimal_keys(
            schema, sigma, "Course", nonempty=spec,
            engine=NaiveClosure(schema, sigma, spec))
