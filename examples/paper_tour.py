#!/usr/bin/env python3
"""The paper, end to end: every figure, table, and theorem in one run.

A guided pass over Hara & Davidson's artifacts in the order the paper
presents them; each block prints what the paper shows and asserts its
claim.  The benchmark suite times the same reproductions individually
(see EXPERIMENTS.md); this script is the narrative version.

Run:  python examples/paper_tour.py
"""

from repro import ClosureEngine, Derivation, NFD, NonEmptySpec, \
    build_countermodel
from repro.generators import workloads
from repro.inference import BruteForceProver, compile_proof
from repro.io import render_relation
from repro.nfd import (
    parse_nfd,
    satisfies,
    satisfies_all,
    translate,
)
from repro.paths import parse_path, relation_paths


def banner(text: str) -> None:
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


# -- Section 1-2: the Course database and Examples 2.1-2.5 ----------------
banner("Sections 1-2 — the Course database, Examples 2.1-2.5")
schema = workloads.course_schema()
sigma = workloads.course_sigma()
instance = workloads.course_instance()
print(render_relation(instance.relation("Course"), title="Course:"))
assert satisfies_all(instance, sigma)
print("\nall five intro constraints hold on the instance.")

# -- Section 2.2: the logic translations ----------------------------------
banner("Section 2.2 — translations to logic (verbatim)")
for text in ("Course:[books:isbn -> books:title]",
             "Course:students:[sid -> grade]"):
    print(f"{text}:")
    print(translate(parse_nfd(text)).to_text())
    print()

# -- the introduction's motivating inference ------------------------------
banner("Section 1 — 'a unique set of books ... the answer is affirmative'")
engine = ClosureEngine(schema, sigma)
question = NFD.parse("Course:[students:sid, time -> books]")
assert engine.implies(question)
print(f"Sigma |- {question}")
print()
print(engine.explain(question).to_text())

# -- Figure 1 ---------------------------------------------------------------
banner("Figure 1 — an instance violating R:[B:C -> E:F]")
fig1 = workloads.figure1_instance()
print(render_relation(fig1.relation("R")))
assert not satisfies(fig1, workloads.figure1_nfd())
print("\nviolates R:[B:C -> E:F], as the paper states.")

# -- Section 3.1: the worked derivation ------------------------------------
banner("Section 3.1 — the eight-step proof of R:A:[B -> E]")
schema31 = workloads.section_3_1_schema()
nfd1, nfd2 = workloads.section_3_1_sigma()
proof = Derivation(schema31, {"nfd1": nfd1, "nfd2": nfd2})
proof.locality("1", "nfd1")
proof.prefix("2", "1", parse_path("B:C"))
proof.locality("3", "2")
proof.push_in("4", "3")
proof.locality("5", "nfd2")
proof.push_in("6", "5")
proof.singleton("7", ["4", "6"])
proof.transitivity("8", ["2", "nfd2"], "7")
print(proof.to_text())
engine31 = ClosureEngine(schema31, [nfd1, nfd2])
assert engine31.implies(proof.conclusion())
assert BruteForceProver(schema31, [nfd1, nfd2]).implies(
    proof.conclusion())
print("\nclosure engine and brute-force prover agree;"
      " the engine's own certificate:")
print(compile_proof(engine31, NFD.parse("R:A:[B -> E]")).to_text())

# -- Example 3.2: empty sets -----------------------------------------------
banner("Example 3.2 — empty sets break transitivity and prefix")
ex32 = workloads.example_3_2_instance()
print(render_relation(ex32.relation("R")))
for text, expected in [("R:[A -> B:C]", True), ("R:[B:C -> D]", True),
                       ("R:[A -> D]", False), ("R:[B:C -> E]", True),
                       ("R:[B -> E]", False)]:
    got = satisfies(ex32, parse_nfd(text))
    assert got is expected
    print(f"  I |= {text:<16} {got}")
spec = NonEmptySpec.for_schema(workloads.example_3_2_schema(),
                               except_paths=[parse_path("R:B")])
gated = ClosureEngine(workloads.example_3_2_schema(),
                      [parse_nfd("R:[A -> B:C]"),
                       parse_nfd("R:[B:C -> D]")], nonempty=spec)
assert not gated.implies(parse_nfd("R:[A -> D]"))
print("\nwith B possibly empty, the gated engine refuses R:[A -> D].")

# -- Appendix A --------------------------------------------------------------
banner("Appendix A — the completeness construction (Example A.1)")
schema_a1 = workloads.example_a1_schema()
sigma_a1 = workloads.example_a1_sigma()
engine_a1 = ClosureEngine(schema_a1, sigma_a1)
closure = engine_a1.closure(parse_path("R"), {parse_path("B")})
print("(R, {B}, Sigma)* =", sorted(map(str, closure)))
witness = build_countermodel(engine_a1, parse_path("R"),
                             {parse_path("B")})
print(render_relation(witness.relation("R")))
assert satisfies_all(witness, sigma_a1)
separated = sum(
    1 for q in relation_paths(schema_a1, "R")
    if not satisfies(witness,
                          NFD(parse_path("R"), {parse_path("B")}, q))
)
print(f"satisfies Sigma; separates the {separated} non-closure paths "
      "(Lemma A.1).")

banner("Tour complete — every claim asserted along the way.")
