"""E7 — Example 3.2: empty sets break transitivity and prefix.

Regenerates the example's three-row table and asserts all five verdicts
the paper states, then shows the Section 3.2 remedy: the gated engine
refuses the unsound inferences exactly when ``B`` may be empty.
"""

from repro.generators import workloads
from repro.inference import ClosureEngine, NonEmptySpec
from repro.io import render_relation
from repro.nfd import ValidatorEngine, parse_nfd
from repro.paths import parse_path

VERDICTS = [
    ("R:[A -> B:C]", True),
    ("R:[B:C -> D]", True),
    ("R:[A -> D]", False),     # transitivity fails
    ("R:[B:C -> E]", True),
    ("R:[B -> E]", False),     # prefix fails
]


def test_example_3_2_verdicts(benchmark, report):
    instance = workloads.example_3_2_instance()
    nfds = [(parse_nfd(text), expected) for text, expected in VERDICTS]
    engines = [ValidatorEngine(instance.schema, [nfd]) for nfd, _ in nfds]

    def check_all():
        return [engine.check(instance) for engine in engines]

    measured = benchmark(check_all)

    lines = [render_relation(instance.relation("R")), ""]
    for (text, expected), got in zip(VERDICTS, measured):
        lines.append(f"  I |= {text:<18} paper: {expected!s:<6} "
                     f"measured: {got}")
    report("Example 3.2", "\n".join(lines))
    assert measured == [expected for _, expected in VERDICTS]


def test_gated_transitivity(benchmark, report):
    schema = workloads.example_3_2_schema()
    sigma = [parse_nfd("R:[A -> B:C]"), parse_nfd("R:[B:C -> D]")]
    spec = NonEmptySpec.for_schema(schema,
                                   except_paths=[parse_path("R:B")])
    target = parse_nfd("R:[A -> D]")

    def decide():
        return ClosureEngine(schema, sigma, nonempty=spec).implies(target)

    verdict = benchmark(decide)
    report("Section 3.2 gated transitivity",
           f"with B possibly empty: Sigma |- {target} ?  "
           f"expected: False   measured: {verdict}")
    assert verdict is False
    # declaring B non-empty restores the classical inference
    assert ClosureEngine(schema, sigma).implies(target)


def test_gated_prefix(benchmark):
    schema = workloads.example_3_2_schema()
    sigma = [parse_nfd("R:[B:C -> E]")]
    spec = NonEmptySpec.for_schema(schema,
                                   except_paths=[parse_path("R:B")])
    target = parse_nfd("R:[B -> E]")
    engine = ClosureEngine(schema, sigma, nonempty=spec)

    verdict = benchmark(lambda: engine.implies(target))
    assert verdict is False
    assert ClosureEngine(schema, sigma).implies(target)
