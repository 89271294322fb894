"""The dense bitset closure kernel versus the object-graph worklist.

Every query runs on the dense kernel; the object-level worklist only
records proofs (``ClosureEngine.proof_closure``, the saturation behind
``explain``/``prove``).  The kernel's claims, as acceptance gates:

* ``test_dense_kernel_gate`` — on a 100-query closure sweep over a
  |Σ| = 64 workload (chains, cross dependencies, and nested-set
  members over 16 attributes plus a set-valued path), the dense
  kernel spends at least :data:`MIN_KERNEL_RATIO` times fewer
  ns/query than the proof-recording worklist, best-of-3 with GC
  paused, with every answer identical.
* ``test_minimal_keys_gate`` — ``minimal_keys`` end-to-end (the
  batch-closure sweep over every candidate combination) finishes at
  least :data:`MIN_KEYS_RATIO` times faster on the production session
  than driven through the proof-recording worklist, on the bench key
  schema, same keys out.

The ``kernel.*_per_sec`` gauges are the inference perf trajectory:
nightly CI dumps them into ``BENCH_closure.json`` via
``--metrics-json`` and ``--compare`` fails the run when a rate falls
more than 20% below the committed baseline.
"""

import gc
import itertools
import time

from repro.analysis import minimal_keys
from repro.inference import ClosureEngine, ImplicationSession
from repro.nfd import parse_nfd
from repro.paths import Path, parse_path
from repro.types.parser import parse_schema

#: The dense kernel must serve the sweep in at least this many times
#: fewer ns per query than the worklist.
MIN_KERNEL_RATIO = 3

#: Production minimal_keys must beat the worklist end-to-end by at
#: least this factor.
MIN_KEYS_RATIO = 2

#: Repeats per side; the best (lowest) time counts.
REPEATS = 3


def _sweep_workload():
    """16 flat attributes plus one nested set under exactly 64 NFDs."""
    fields = ", ".join(f"a{i}: int" for i in range(16))
    schema = parse_schema(
        f"R = {{<{fields}, "
        "s: {<x0: int, x1: int, x2: int, x3: int>}>}"
    )
    texts = []
    texts += [f"R:[a{i} -> a{i + 1}]" for i in range(15)]
    texts += [f"R:[a{i}, a{i + 2} -> a{(i * 7 + 3) % 16}]"
              for i in range(12)]
    texts += [f"R:[a{(i * 5 + 1) % 16} -> a{(i * 11 + 4) % 16}]"
              for i in range(12)]
    texts += [f"R:[a{i} -> s:x{i % 4}]" for i in range(8)]
    texts += [f"R:[s, a{8 + i % 8} -> s:x{(i + 1) % 4}]"
              for i in range(8)]
    texts += [f"R:[a{(i * 3) % 16}, s:x{i % 4} -> a{(i * 5 + 7) % 16}]"
              for i in range(8)]
    texts += ["R:[s:x0, s:x1 -> a0]"]
    sigma = tuple(parse_nfd(text) for text in texts)
    assert len(sigma) == 64, f"workload drifted to |Sigma|={len(sigma)}"
    base = Path(("R",))
    queries = [(base, frozenset({parse_path(f"a{i}")}))
               for i in range(16)]
    queries += [(base, frozenset({parse_path(f"a{i}"),
                                  parse_path(f"a{j}")}))
                for i, j in itertools.combinations(range(16), 2)][:84]
    return schema, sigma, queries


def _proof_closure(engine, base, lhs):
    """``engine.closure(base, lhs)`` answered by the proof-recording
    worklist: the same simple-form translation and pull-out, with the
    object-level saturation in the middle."""
    relation, ybar, lhs_set, simple_lhs = engine._push_in(base, lhs)
    return engine._pull_out(base, relation, ybar, lhs_set,
                            engine.proof_closure(relation, simple_lhs))


def _timed_sweep(schema, sigma, queries, side):
    """Best-of-REPEATS wall seconds for a cold engine serving the full
    sweep (dense table compilation, or the worklist's trigger index, is
    part of the first query's cost), GC paused around each repeat.
    *side* ``"dense"`` asks the engine's queries; ``"worklist"`` asks
    the proof-recording saturation for the same closures."""
    best = None
    answers = None
    for _ in range(REPEATS):
        engine = ClosureEngine(schema, sigma)
        ask = engine.closure if side == "dense" else \
            (lambda base, lhs: _proof_closure(engine, base, lhs))
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            run = [ask(base, lhs) for base, lhs in queries]
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best, answers = elapsed, run
    return best, answers


def test_dense_kernel_gate(gate_metrics):
    """Gate: dense >= MIN_KERNEL_RATIO x fewer ns/query than the
    worklist on the |Sigma|=64 sweep, identical closures."""
    schema, sigma, queries = _sweep_workload()
    worklist_time, worklist_answers = _timed_sweep(
        schema, sigma, queries, "worklist")
    dense_time, dense_answers = _timed_sweep(
        schema, sigma, queries, "dense")

    assert dense_answers == worklist_answers, \
        "the dense kernel diverged from the worklist"
    count = len(queries)
    worklist_ns = worklist_time * 1e9 / count
    dense_ns = dense_time * 1e9 / count
    ratio = worklist_ns / dense_ns
    print(f"\nclosure kernel (|Sigma|=64, {count} queries, "
          f"best of {REPEATS}): worklist {worklist_ns:,.0f} ns/query, "
          f"dense {dense_ns:,.0f} ns/query -> {ratio:.2f}x")
    assert ratio >= MIN_KERNEL_RATIO, (
        f"dense was only {ratio:.2f}x faster than the worklist "
        f"({dense_ns:,.0f} vs {worklist_ns:,.0f} ns/query), below "
        f"{MIN_KERNEL_RATIO}x")

    gate_metrics.gauge("kernel.worklist_ns_per_query").set(
        round(worklist_ns))
    gate_metrics.gauge("kernel.dense_ns_per_query").set(round(dense_ns))
    gate_metrics.gauge("kernel.dense_speedup").set(round(ratio, 2))
    gate_metrics.gauge("kernel.dense_queries_per_sec").set(
        round(count / dense_time, 1))


def _keys_workload():
    """10 attributes under a chain plus cross dependencies, |Σ| = 31.

    ``{a0}`` is the only key (no rule ever derives ``a0``), so the
    sweep still visits every subset of the other nine attributes —
    500+ candidate queries, each saturating a non-trivial rule pool."""
    fields = ", ".join(f"a{i}: int" for i in range(10))
    schema = parse_schema(f"K = {{<{fields}>}}")
    texts = [f"K:[a{i} -> a{i + 1}]" for i in range(9)]
    texts += [f"K:[a{i % 10}, a{(i + 3) % 9 + 1} "
              f"-> a{(i * 7 + 3) % 9 + 1}]" for i in range(12)]
    texts += [f"K:[a{(i * 5) % 9 + 1} -> a{(i * 4 + 2) % 9 + 1}]"
              for i in range(10)]
    sigma = tuple(parse_nfd(text) for text in texts)
    assert len(sigma) == 31, f"workload drifted to |Sigma|={len(sigma)}"
    return schema, sigma


class _ProofPathKeys:
    """The key sweep driven through the proof-recording worklist: one
    object-level closure per candidate."""

    def __init__(self, schema, sigma):
        self.schema = schema
        self.engine = ClosureEngine(schema, sigma)

    def closure(self, base, lhs):
        return _proof_closure(self.engine, base, lhs)


def _timed_keys(schema, sigma, side):
    best = None
    keys = None
    for _ in range(REPEATS):
        session = ImplicationSession(schema, sigma) if side == "dense" \
            else _ProofPathKeys(schema, sigma)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            run = minimal_keys(schema, sigma, "K", engine=session)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best, keys = elapsed, run
    return best, keys


def test_minimal_keys_gate(gate_metrics):
    """Gate: dense minimal_keys >= MIN_KEYS_RATIO x faster end-to-end
    than the worklist, same keys."""
    schema, sigma = _keys_workload()
    worklist_time, worklist_keys = _timed_keys(schema, sigma,
                                               "worklist")
    dense_time, dense_keys = _timed_keys(schema, sigma, "dense")

    assert dense_keys == worklist_keys, \
        "the dense key sweep diverged from the worklist"
    ratio = worklist_time / dense_time
    print(f"\nminimal_keys (10 attributes, best of {REPEATS}): "
          f"worklist {worklist_time * 1000:.1f}ms, dense "
          f"{dense_time * 1000:.1f}ms -> {ratio:.2f}x")
    assert ratio >= MIN_KEYS_RATIO, (
        f"dense minimal_keys was only {ratio:.2f}x faster "
        f"({dense_time * 1000:.1f}ms vs {worklist_time * 1000:.1f}ms), "
        f"below {MIN_KEYS_RATIO}x")

    gate_metrics.gauge("kernel.keys_speedup").set(round(ratio, 2))
    gate_metrics.gauge("kernel.keys_sweeps_per_sec").set(
        round(1.0 / dense_time, 2))
