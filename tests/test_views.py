"""Unit and randomized tests for the view algebra and NFD propagation."""

import random

import pytest

from repro.errors import InferenceError
from repro.generators import (
    random_satisfying_instance,
    random_sigma,
    workloads,
)
from repro.nfd import parse_nfd, parse_nfds, satisfies_all
from repro.types import parse_schema
from repro.values import Instance, check_value
from repro.views import (
    Base,
    evaluate,
    output_type,
    propagate_nfds,
    view_schema,
)


@pytest.fixture
def enrollment_schema():
    return parse_schema(
        "Enrollment = {<cnum: string, time: int, sid: int, "
        "grade: string>}")


@pytest.fixture
def enrollment_instance(enrollment_schema):
    return Instance(enrollment_schema, {"Enrollment": [
        {"cnum": "a", "time": 1, "sid": 1, "grade": "A"},
        {"cnum": "a", "time": 1, "sid": 2, "grade": "B"},
        {"cnum": "b", "time": 2, "sid": 1, "grade": "A"},
    ]})


class TestAlgebraEvaluation:
    def test_base(self, enrollment_instance):
        result = evaluate(Base("Enrollment"), enrollment_instance)
        assert len(result) == 3

    def test_select(self, enrollment_instance):
        expr = Base("Enrollment").select("cnum", "a")
        assert len(evaluate(expr, enrollment_instance)) == 2

    def test_project(self, enrollment_instance):
        expr = Base("Enrollment").project("cnum", "time")
        result = evaluate(expr, enrollment_instance)
        assert len(result) == 2  # the two a-rows collapse

    def test_nest_unnest_roundtrip(self, enrollment_instance):
        nested = Base("Enrollment").nest("students", ["sid", "grade"])
        flat_again = nested.unnest("students")
        assert evaluate(flat_again, enrollment_instance) == \
            enrollment_instance.relation("Enrollment")

    def test_composition(self, enrollment_instance):
        expr = Base("Enrollment").select("cnum", "a") \
            .nest("students", ["sid", "grade"]) \
            .project("cnum", "students")
        result = evaluate(expr, enrollment_instance)
        assert len(result) == 1
        element = next(iter(result))
        assert len(element.get("students")) == 2

    def test_output_type_matches_value(self, enrollment_schema,
                                       enrollment_instance):
        expr = Base("Enrollment").nest("students", ["sid", "grade"]) \
            .project("cnum", "students")
        value = evaluate(expr, enrollment_instance)
        check_value(value, output_type(expr, enrollment_schema))

    def test_select_requires_base_attribute(self, enrollment_schema):
        nested = Base("Enrollment").nest("students", ["sid", "grade"])
        with pytest.raises(InferenceError):
            output_type(nested.select("students", 1), enrollment_schema)

    def test_project_unknown_attribute(self, enrollment_schema):
        with pytest.raises(InferenceError):
            output_type(Base("Enrollment").project("zzz"),
                        enrollment_schema)


class TestPropagation:
    SIGMA_TEXT = """
        Enrollment:[cnum -> time]
        Enrollment:[sid, cnum -> grade]
    """

    def test_base_passthrough(self, enrollment_schema):
        sigma = parse_nfds(self.SIGMA_TEXT)
        carried = propagate_nfds(Base("Enrollment"), enrollment_schema,
                                 sigma)
        assert parse_nfd("View:[cnum -> time]") in carried

    def test_selection_gains_constant(self, enrollment_schema):
        sigma = parse_nfds(self.SIGMA_TEXT)
        expr = Base("Enrollment").select("cnum", "a")
        carried = propagate_nfds(expr, enrollment_schema, sigma)
        assert parse_nfd("View:[∅ -> cnum]") in carried

    def test_projection_filters(self, enrollment_schema):
        sigma = parse_nfds(self.SIGMA_TEXT)
        expr = Base("Enrollment").project("cnum", "time")
        carried = propagate_nfds(expr, enrollment_schema, sigma)
        assert parse_nfd("View:[cnum -> time]") in carried
        assert all("grade" not in str(nfd) for nfd in carried)

    def test_nest_rewrites_and_adds_structure(self, enrollment_schema):
        sigma = parse_nfds(self.SIGMA_TEXT)
        expr = Base("Enrollment").nest("students", ["sid", "grade"])
        carried = propagate_nfds(expr, enrollment_schema, sigma)
        assert parse_nfd("View:[cnum -> time]") in carried
        assert parse_nfd(
            "View:[cnum, students:sid -> students:grade]") in carried
        assert parse_nfd("View:[cnum, time -> students]") in carried

    def test_unnest_flattens(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        expr = Base("Course").unnest("students")
        carried = propagate_nfds(expr, schema, sigma)
        # the global sid -> age NFD flattens to a plain FD
        assert parse_nfd("View:[sid -> age]") in carried
        # cnum -> students mentions the vanished set: dropped
        assert all("students" not in str(nfd) for nfd in carried)

    def test_view_schema(self, enrollment_schema):
        expr = Base("Enrollment").nest("students", ["sid", "grade"])
        schema = view_schema(expr, enrollment_schema)
        assert schema.relation_names == ("View",)
        assert schema.element_type("View").has_field("students")


class TestJoin:
    @pytest.fixture
    def dept_emp(self):
        schema = parse_schema("""
            Dept = {<dept: string, head: string>} ;
            Emp = {<emp: string, dept: string,
                    skills: {<skill: string, level: int>}>}
        """)
        instance = Instance(schema, {
            "Dept": [{"dept": "db", "head": "codd"},
                     {"dept": "pl", "head": "milner"}],
            "Emp": [
                {"emp": "ada", "dept": "db",
                 "skills": [{"skill": "sql", "level": 3}]},
                {"emp": "bob", "dept": "pl",
                 "skills": [{"skill": "ml", "level": 2}]},
                {"emp": "cyn", "dept": "none",
                 "skills": [{"skill": "c", "level": 1}]},
            ],
        })
        sigma = parse_nfds("""
            Dept:[dept -> head]
            Emp:[emp -> dept]
            Emp:[emp -> skills]
            Emp:[skills:skill -> skills:level]
        """)
        return schema, instance, sigma

    def test_evaluation(self, dept_emp):
        schema, instance, _ = dept_emp
        expr = Base("Emp").join(Base("Dept"))
        result = evaluate(expr, instance)
        assert len(result) == 2  # cyn's dept has no match
        emps = {row.get("emp").value for row in result}
        assert emps == {"ada", "bob"}
        for row in result:
            assert row.has("head") and row.has("skills")

    def test_output_type(self, dept_emp):
        schema, _, _ = dept_emp
        expr = Base("Emp").join(Base("Dept"))
        labels = output_type(expr, schema).element.labels
        assert set(labels) == {"emp", "dept", "skills", "head"}

    def test_propagation_carries_both_sides(self, dept_emp):
        schema, instance, sigma = dept_emp
        expr = Base("Emp").join(Base("Dept"))
        carried = propagate_nfds(expr, schema, sigma)
        assert parse_nfd("View:[dept -> head]") in carried
        assert parse_nfd("View:[emp -> dept]") in carried
        assert parse_nfd(
            "View:[skills:skill -> skills:level]") in carried
        target = view_schema(expr, schema)
        view = Instance(target, {"View": evaluate(expr, instance)})
        assert satisfies_all(view, carried)

    def test_join_composes_with_nest(self, dept_emp):
        schema, instance, sigma = dept_emp
        expr = Base("Emp").unnest("skills").join(Base("Dept")) \
            .nest("staff", ["emp", "skill", "level"])
        carried = propagate_nfds(expr, schema, sigma)
        target = view_schema(expr, schema)
        view = Instance(target, {"View": evaluate(expr, instance)})
        assert satisfies_all(view, carried)

    def test_no_shared_attributes_rejected(self, dept_emp):
        schema, _, _ = dept_emp
        bad_schema = parse_schema("""
            A = {<x: int>} ; B = {<y: int>}
        """)
        with pytest.raises(InferenceError):
            output_type(Base("A").join(Base("B")), bad_schema)

    def test_set_valued_join_key_rejected(self):
        schema = parse_schema("""
            A = {<k: {<v: int>}, x: int>} ; B = {<k: {<v: int>}, y: int>}
        """)
        with pytest.raises(InferenceError):
            output_type(Base("A").join(Base("B")), schema)


class TestPropagationSoundness:
    """Every propagated NFD holds on the evaluated view whenever the
    source satisfies Sigma (no-empty-sets setting)."""

    def _check(self, expr, schema, sigma, instance):
        carried = propagate_nfds(expr, schema, sigma)
        target_schema = view_schema(expr, schema)
        view_instance = Instance(target_schema, {
            "View": evaluate(expr, instance)
        })
        assert satisfies_all(view_instance, carried), \
            (expr, carried)

    def test_course_views(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        instance = workloads.course_instance()
        for expr in [
            Base("Course"),
            Base("Course").select("time", 10),
            Base("Course").project("cnum", "students"),
            Base("Course").unnest("books"),
            Base("Course").unnest("books").project("cnum", "isbn",
                                                   "title"),
            Base("Course").unnest("students").nest(
                "enrolled", ["sid", "age", "grade"]),
        ]:
            self._check(expr, schema, sigma, instance)

    def test_randomized_flat_pipelines(self):
        rng = random.Random(88)
        schema = parse_schema("R = {<A, B, C, D>}")
        checked = 0
        for _ in range(25):
            sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
            instance = random_satisfying_instance(
                rng, schema, sigma, tuples=3, domain=2)
            if instance is None:
                continue
            expr = Base("R")
            nest_counter = 0
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(3)
                element = output_type(expr, schema).element
                current = list(element.labels)
                if op == 0 and len(current) > 1:
                    keep = rng.sample(current,
                                      rng.randint(1, len(current) - 1))
                    expr = expr.project(*keep)
                elif op == 1:
                    base_attrs = [
                        label for label in current
                        if not element.field(label).is_set()
                    ]
                    if base_attrs:
                        expr = expr.select(rng.choice(base_attrs),
                                           rng.randrange(2))
                else:
                    base_attrs = [
                        label for label in current
                        if not element.field(label).is_set()
                    ]
                    if len(base_attrs) >= 1 and len(current) >= 2:
                        nested = rng.sample(
                            base_attrs,
                            rng.randint(1, max(1,
                                               len(base_attrs) - 1)))
                        if len(nested) < len(current):
                            nest_counter += 1
                            expr = expr.nest(
                                f"N{checked}x{nest_counter}", nested)
            self._check(expr, schema, sigma, instance)
            checked += 1
        assert checked > 10
