#!/usr/bin/env python3
"""View dependencies: which constraints does a derived view inherit?

"If a new database is created as a materialized view over multiple
complex databases, knowing how dependencies are carried into this
complex view could eliminate expensive checking" — the paper's opening
motivation, played out with the view algebra:

1. start from the Course database and its five constraints;
2. define views with selection, projection, nest, and unnest;
3. propagate the NFDs through each view — checked once, statically;
4. materialize the views and confirm the propagated constraints hold,
   with no per-refresh revalidation of the source rules.

Run:  python examples/view_dependencies.py
"""

from repro import Instance
from repro.generators import workloads
from repro.io import render_relation
from repro.nfd import satisfies_all
from repro.views import Base, evaluate, propagate_nfds, view_schema

schema = workloads.course_schema()
sigma = workloads.course_sigma()
instance = workloads.course_instance()

views = {
    # the flattened enrollment feed
    "enrollments": Base("Course").unnest("students"),
    # the 10am course catalogue
    "morning": Base("Course").select("time", 10),
    # a compact catalogue without student data
    "catalogue": Base("Course").project("cnum", "time", "books"),
    # the book list, flat
    "books_flat": Base("Course").unnest("books")
                                .project("cnum", "isbn", "title"),
    # re-nest the flattened feed by course
    "regrouped": Base("Course").unnest("books")
                               .project("cnum", "time", "isbn", "title")
                               .nest("titles", ["isbn", "title"]),
}

for name, expr in views.items():
    carried = propagate_nfds(expr, schema, sigma, view_name=name)
    print(f"view {name} = {expr!r}")
    print(f"  inherits {len(carried)} constraint(s):")
    for nfd in carried:
        print(f"    {nfd}")
    target_schema = view_schema(expr, schema, view_name=name)
    materialized = Instance(target_schema,
                            {name: evaluate(expr, instance)})
    holds = satisfies_all(materialized, carried)
    print(f"  materialized view satisfies them: {holds}")
    assert holds
    print()

# One view in full: the flat book list with its inherited key.
expr = views["books_flat"]
materialized = evaluate(expr, instance)
print(render_relation(materialized, title="books_flat:"))
