"""Differential tests: the closure engine vs. the naive reference.

The engine answers queries with the dense bitset kernel and records
proofs with its indexed worklist (``ClosureEngine.proof_closure``); the
:class:`~repro.inference.NaiveClosure` reference rescans every usable
against every query until nothing changes.  All three compute the
least fixpoint of the same monotone step operator, so they must agree
exactly — on every closure, at relation-name and nested bases, in both
the plain Section 3.1 mode and the non-empty-gated Section 3.2 mode.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized (schema, Sigma, query) cases across
the two modes) independent of hypothesis profiles; a hypothesis wrapper
adds shrinking on failure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine, NaiveClosure, NonEmptySpec
from repro.paths import Path, relation_paths, set_paths

SEEDS_PER_MODE = 40
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


def _check_agreement(seed: int, gated: bool) -> None:
    rng, schema, sigma, relation, paths = _draw(seed)
    spec = _partial_spec(rng, schema, relation) if gated else None
    engine = ClosureEngine(schema, sigma, nonempty=spec)
    naive = NaiveClosure(schema, sigma, nonempty=spec)
    base = Path((relation,))
    for _ in range(QUERIES_PER_CASE):
        lhs = frozenset(rng.sample(paths,
                                   min(len(paths), rng.randint(0, 2))))
        closed = engine.closure_simple(relation, lhs)
        assert closed == naive.closure_simple(relation, lhs), \
            (sigma, spec, lhs)
        # the proof-recording worklist reaches the same fixpoint
        assert closed == engine.proof_closure(relation, lhs), \
            (sigma, spec, lhs)
        assert engine.closure(base, lhs) == naive.closure(base, lhs), \
            (sigma, spec, lhs)
    # nested bases exercise the simple-form translation and, in gated
    # mode, the pull-out gate of ClosureEngine.closure
    nested = list(set_paths(schema, relation))
    for tail in nested[:2]:
        nested_base = base.concat(tail)
        assert engine.closure(nested_base, ()) == \
            naive.closure(nested_base, ()), (sigma, spec, nested_base)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_worklist_equals_naive_plain(seed):
    _check_agreement(seed, gated=False)


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_worklist_equals_naive_gated(seed):
    _check_agreement(seed, gated=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.booleans())
def test_worklist_equals_naive_hypothesis(seed, gated):
    """Shrinkable variant of the seed sweep above."""
    _check_agreement(seed, gated)


@pytest.mark.parametrize("seed", range(10))
def test_worklist_does_less_work(seed):
    """The point of indexing: no more rule attempts than the global
    rescan, on both the kernel and the proof path, and identical
    successes (every side derives exactly the closure)."""
    rng, schema, sigma, relation, paths = _draw(seed)
    engine = ClosureEngine(schema, sigma)
    recorder = ClosureEngine(schema, sigma)
    naive = NaiveClosure(schema, sigma)
    base = Path((relation,))
    for p in paths:
        closed = naive.closure(base, frozenset([p]))
        assert engine.closure(base, frozenset([p])) == closed
        assert recorder.proof_closure(relation, frozenset([p])) == closed
    for side in (engine.stats, recorder.stats):
        assert side.attempts <= naive.attempts
        assert side.successes == naive.successes
