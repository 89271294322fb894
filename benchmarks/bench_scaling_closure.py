"""E12 — scaling of the closure engine.

Sweeps the two structural knobs the theory exposes:

* |Sigma| — more dependencies at a fixed schema;
* nesting depth — deeper schemas at a fixed |Sigma|.

Expected shape: roughly linear growth in |Sigma| for fixed schemas;
super-linear but polynomial growth in depth (the singleton-candidate
family grows with the number of set paths times depth).

The engine-vs-naive comparison quantifies the win of the compiled,
indexed saturation: at the largest |Sigma| scale the engine (its dense
kernel, counting row scans, and its proof-recording worklist, counting
step attempts) must attempt at least 5x fewer rules than the naive
global-rescan reference (:class:`repro.inference.NaiveClosure`), with
no wall-time regression.
"""

import random

import pytest

from repro.generators import random_schema, random_sigma
from repro.inference import ClosureEngine, NaiveClosure
from repro.paths import Path, relation_paths

SIGMA_SIZES = [2, 8, 32]
DEPTHS = [1, 2, 3]


def _fixed_schema():
    return random_schema(random.Random(99), relations=1, max_fields=4,
                         max_depth=2, set_probability=0.5)


@pytest.mark.parametrize("size", SIGMA_SIZES)
def test_scaling_sigma(benchmark, size):
    schema = _fixed_schema()
    rng = random.Random(100 + size)
    sigma = random_sigma(rng, schema, count=size, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    lhs = frozenset(paths[:2])
    benchmark.group = "closure vs |Sigma|"

    def compute():
        engine = ClosureEngine(schema, sigma)
        return engine.closure(Path((relation,)), lhs)

    closed = benchmark(compute)
    assert lhs <= closed


@pytest.mark.parametrize("depth", DEPTHS)
def test_scaling_depth(benchmark, depth):
    rng = random.Random(200 + depth)
    schema = random_schema(rng, relations=1, max_fields=3,
                           max_depth=depth, set_probability=0.8)
    sigma = random_sigma(rng, schema, count=6, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    lhs = frozenset(paths[:1])
    benchmark.group = "closure vs depth"

    def compute():
        engine = ClosureEngine(schema, sigma)
        return engine.closure(Path((relation,)), lhs)

    closed = benchmark(compute)
    assert lhs <= closed


def test_engine_reuse_amortizes(benchmark):
    """Querying a warm engine is much cheaper than building one: the
    saturation state is shared across queries."""
    schema = _fixed_schema()
    rng = random.Random(300)
    sigma = random_sigma(rng, schema, count=16, max_lhs=2)
    relation = schema.relation_names[0]
    paths = relation_paths(schema, relation)
    engine = ClosureEngine(schema, sigma)
    base = Path((relation,))
    queries = [frozenset([p]) for p in paths]
    for query in queries:
        engine.closure(base, query)  # warm every query once

    def query_all_warm():
        return [engine.closure(base, query) for query in queries]

    results = benchmark(query_all_warm)
    assert len(results) == len(queries)


def test_worklist_vs_naive_attempts(report):
    """E12b — the engine does >= 5x less rule work than a rescan.

    Same schema/Sigma/queries through the engine's queries, its
    proof-recording worklist, and the naive reference at the largest
    |Sigma| scale; each counts the rule attempts it needed to reach the
    identical fixpoint.
    """
    schema = _fixed_schema()
    rng = random.Random(100 + SIGMA_SIZES[-1])
    sigma = random_sigma(rng, schema, count=SIGMA_SIZES[-1], max_lhs=2)
    relation = schema.relation_names[0]
    base = Path((relation,))
    queries = [frozenset([p]) for p in relation_paths(schema, relation)]

    fast = ClosureEngine(schema, sigma)
    proof = ClosureEngine(schema, sigma)
    slow = NaiveClosure(schema, sigma)
    for query in queries:
        closed = slow.closure(base, query)
        assert fast.closure(base, query) == closed
        assert proof.proof_closure(relation, query) == closed

    fast_stats, proof_stats = fast.stats, proof.stats
    report(
        "closure saturation: engine vs naive "
        f"(|Sigma|={SIGMA_SIZES[-1]}, {len(queries)} queries)",
        f"dense kernel: {fast_stats.attempts} row scans, "
        f"{fast_stats.successes} successes, "
        f"{fast_stats.wall_time:.4f}s\n"
        f"proof worklist: {proof_stats.attempts} attempts, "
        f"{proof_stats.successes} successes, "
        f"{proof_stats.wall_time:.4f}s\n"
        f"naive: {slow.attempts} attempts, {slow.successes} successes, "
        f"{slow.wall_time:.4f}s\n"
        f"attempt ratio: {slow.attempts / fast_stats.attempts:.1f}x "
        f"(kernel), {slow.attempts / proof_stats.attempts:.1f}x "
        "(worklist)"
    )
    for side in (fast_stats, proof_stats):
        assert side.successes == slow.successes
        assert slow.attempts >= 5 * side.attempts
        # no wall-time regression (generous slack: the attempt gap is
        # wide, so timing noise cannot mask a real regression)
        assert side.wall_time <= slow.wall_time * 1.2
