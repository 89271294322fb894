#!/usr/bin/env python3
"""Schema design: from a flat feed to a constrained nested schema.

The classical payoff of an FD axiomatization (the paper's introduction):
normal forms, lossless joins, dependency preservation — extended here to
the nested world.  Starting from a flat enrollment feed:

1. analyze the flat FDs: BCNF violations, a lossless decomposition,
   dependency preservation (with the chase as the judge);
2. design a *nested* schema instead with a NestPlan, classify every FD
   as top-level / intra-set / inter-set, and obtain the NFD set the
   nested schema must enforce;
3. load the feed through the incremental checker and watch a violating
   row get rejected at admission time;
4. let the chase-style repair merge an inconsistent batch.

Run:  python examples/schema_designer.py
"""

from repro import parse_schema
from repro.chase import lossless_join, repair
from repro.design import (
    DependencyPlacement,
    NestPlan,
    bcnf_decompose,
    bcnf_violations,
    preserves_dependencies,
)
from repro.incremental import IncrementalChecker
from repro.inference import FD
from repro.io import render_relation
from repro.nfd import satisfies_all
from repro.values import Instance

# ---------------------------------------------------------------------------
# The flat feed: one row per (course, student).
# ---------------------------------------------------------------------------
ATTRS = ["cnum", "time", "room", "sid", "age", "grade"]
FDS = [
    FD({"cnum"}, "time"),
    FD({"cnum"}, "room"),
    FD({"sid"}, "age"),
    FD({"cnum", "sid"}, "grade"),
]

print("flat attributes:", ", ".join(ATTRS))
print("flat FDs:")
for fd in FDS:
    print("  ", fd)

# ---------------------------------------------------------------------------
# 1. Classical design: BCNF + lossless join + preservation.
# ---------------------------------------------------------------------------
print()
print("BCNF violations:", bcnf_violations(ATTRS, FDS))
decomposition = bcnf_decompose(ATTRS, FDS)
print("BCNF decomposition:", [",".join(c) for c in decomposition])
print("lossless join (chase-verified):",
      lossless_join(ATTRS, decomposition, FDS))
print("dependency preserving:",
      preserves_dependencies(ATTRS, FDS, decomposition))

# ---------------------------------------------------------------------------
# 2. The nested alternative: one Course tuple with a students set.
# ---------------------------------------------------------------------------
flat_schema = parse_schema(
    "Course = {<cnum: string, time: int, room: string, sid: int, "
    "age: int, grade: string>}")
plan = NestPlan("Course", ATTRS).nest("students",
                                      ["sid", "age", "grade"])
report = plan.report(flat_schema.relation_type("Course"), FDS)
print()
print("nest plan: students <- {sid, age, grade}")
print("FD placement in the nested design:")
print(report.to_text())
print()
print("per-course checks suffice for:",
      [str(p.fd) for p in report.placements
       if report.locally_enforceable(p)])
print("global NFDs required for:",
      [str(p.fd) for p in report.placements
       if not report.locally_enforceable(p)])
# this is the paper's Example 2.3 (local grade) vs Example 2.4
# (global age) distinction, derived automatically from the flat FDs.

nested_schema = report.schema
sigma = report.nfds()

# ---------------------------------------------------------------------------
# 3. Loading through the incremental checker.
# ---------------------------------------------------------------------------
checker = IncrementalChecker(nested_schema, sigma)
good_rows = [
    {"cnum": "cis550", "time": 10, "room": "moore100",
     "students": [{"sid": 1, "age": 27, "grade": "A"},
                  {"sid": 2, "age": 26, "grade": "B"}]},
    {"cnum": "cis500", "time": 12, "room": "moore216",
     "students": [{"sid": 1, "age": 27, "grade": "A"}]},
]
for row in good_rows:
    assert checker.insert("Course", row) == []
print()
print("loaded", len(checker), "course tuples; consistent:",
      checker.is_consistent())

# A bad row: sid 1 suddenly has a different age.
bad_row = {"cnum": "cis700", "time": 9, "room": "levine307",
           "students": [{"sid": 1, "age": 99, "grade": "A"}]}
rejected = checker.check_insert("Course", bad_row)
print("admission check for the bad row:")
for conflict in rejected:
    print("  ", conflict.describe())

# ---------------------------------------------------------------------------
# 4. Or accept everything and let the chase repair the batch.
# ---------------------------------------------------------------------------
dirty = Instance(nested_schema, {
    "Course": good_rows + [bad_row],
})
print()
print("dirty batch satisfies sigma:", satisfies_all(dirty, sigma))
clean = repair(dirty, sigma)
print("after chase repair:", satisfies_all(clean, sigma))
print()
print(render_relation(clean.relation("Course"), title="repaired Course:"))
