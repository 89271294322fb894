"""E8 — Example A.1: the counterexample construction, flat base.

Regenerates the closure ``(R, {B}, Sigma)*`` (must equal the paper's six
paths) and the constructed two-tuple instance (must match the paper's
table up to fresh-value renaming), verifies Lemma A.1 semantically, and
benchmarks closure computation and instance construction.
"""

from repro.generators import workloads
from repro.inference import ClosureEngine, build_countermodel
from repro.io import render_relation
from repro.nfd import NFD, satisfies, satisfies_all
from repro.paths import parse_path, relation_paths

PAPER_CLOSURE = {"B", "B:C", "D", "E:F", "H", "H:J"}


def test_a1_closure(benchmark, report):
    schema = workloads.example_a1_schema()
    sigma = workloads.example_a1_sigma()

    def compute():
        engine = ClosureEngine(schema, sigma)
        return engine.closure(parse_path("R"), {parse_path("B")})

    closed = benchmark(compute)
    report("Example A.1 closure",
           f"(R, {{B}}, Sigma)* = {sorted(map(str, closed))}\n"
           f"paper:              {sorted(PAPER_CLOSURE)}")
    assert {str(p) for p in closed} == PAPER_CLOSURE


def test_a1_construction(benchmark, report):
    schema = workloads.example_a1_schema()
    sigma = workloads.example_a1_sigma()
    engine = ClosureEngine(schema, sigma)

    instance = benchmark(lambda: build_countermodel(
        engine, parse_path("R"), {parse_path("B")}))

    report("Example A.1 constructed instance",
           render_relation(instance.relation("R")))

    rows = list(instance.relation("R"))
    assert len(rows) == 2
    # The paper's table shapes: B shared singleton, D shared, E single
    # row with F shared, H shared two-row set, A/I fresh per tuple.
    assert rows[0].get("B") == rows[1].get("B")
    assert rows[0].get("B").is_singleton
    assert rows[0].get("D") == rows[1].get("D")
    assert rows[0].get("H") == rows[1].get("H")
    assert len(rows[0].get("H")) == 2
    assert rows[0].get("A") != rows[1].get("A")
    assert rows[0].get("I") != rows[1].get("I")
    e_first = next(iter(rows[0].get("E")))
    e_second = next(iter(rows[1].get("E")))
    assert e_first.get("F") == e_second.get("F")
    assert e_first.get("G") != e_second.get("G")


def test_a1_lemma(benchmark):
    """Lemma A.1, semantically: I satisfies Sigma and separates exactly
    the non-closure paths."""
    schema = workloads.example_a1_schema()
    sigma = workloads.example_a1_sigma()
    engine = ClosureEngine(schema, sigma)
    instance = build_countermodel(engine, parse_path("R"),
                                  {parse_path("B")})
    closed = engine.closure(parse_path("R"), {parse_path("B")})
    all_paths = relation_paths(schema, "R")

    def verify():
        if not satisfies_all(instance, sigma):
            return False
        for q in all_paths:
            nfd = NFD(parse_path("R"), {parse_path("B")}, q)
            if satisfies(instance, nfd) != (q in closed):
                return False
        return True

    assert benchmark(verify) is True
