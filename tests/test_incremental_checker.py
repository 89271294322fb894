"""Unit and randomized tests for the incremental checker."""

import random

import pytest

from repro.errors import InstanceError
from repro.generators import random_instance, random_schema, random_sigma
from repro.generators import workloads
from repro.incremental import IncrementalChecker
from repro.nfd import parse_nfd, parse_nfds, satisfies_all
from repro.types import parse_schema


@pytest.fixture
def course_checker():
    return IncrementalChecker(workloads.course_schema(),
                              workloads.course_sigma())


def _course(cnum, time, sid=1, age=20, grade="A", isbn=1, title="t"):
    return {"cnum": cnum, "time": time,
            "students": [{"sid": sid, "age": age, "grade": grade}],
            "books": [{"isbn": isbn, "title": title}]}


class TestInsert:
    def test_clean_inserts(self, course_checker):
        assert course_checker.insert("Course", _course("a", 1)) == []
        assert course_checker.insert("Course",
                                     _course("b", 2, sid=2)) == []
        assert course_checker.is_consistent()
        assert len(course_checker) == 2

    def test_global_conflict_detected(self, course_checker):
        course_checker.insert("Course", _course("a", 1, sid=1, age=20))
        created = course_checker.insert(
            "Course", _course("b", 2, sid=1, age=99))
        assert created  # sid -> age violated
        assert not course_checker.is_consistent()
        texts = " ".join(c.describe() for c in created)
        assert "students:sid" in texts

    def test_local_conflict_detected(self, course_checker):
        # two grades for one student within a single course
        bad = {"cnum": "a", "time": 1,
               "students": [{"sid": 1, "age": 20, "grade": "A"},
                            {"sid": 1, "age": 20, "grade": "B"}],
               "books": [{"isbn": 1, "title": "t"}]}
        created = course_checker.insert("Course", bad)
        assert any(c.nfd == parse_nfd("Course:students:[sid -> grade]")
                   for c in created)

    def test_duplicate_insert_is_noop(self, course_checker):
        row = _course("a", 1)
        course_checker.insert("Course", row)
        assert course_checker.insert("Course", row) == []
        assert len(course_checker) == 1

    def test_scheduling_conflict(self, course_checker):
        course_checker.insert("Course", _course("a", 1, sid=1))
        created = course_checker.insert("Course", _course("b", 1, sid=1))
        assert any("time" in c.describe() for c in created)


class TestRemove:
    def test_removal_resolves(self, course_checker):
        first = _course("a", 1, sid=1, age=20)
        second = _course("b", 2, sid=1, age=99)
        course_checker.insert("Course", first)
        course_checker.insert("Course", second)
        assert not course_checker.is_consistent()
        resolved = course_checker.remove("Course", second)
        assert resolved
        assert course_checker.is_consistent()

    def test_remove_missing_raises(self, course_checker):
        with pytest.raises(InstanceError):
            course_checker.remove("Course", _course("a", 1))

    def test_partial_resolution_keeps_conflict(self):
        schema = parse_schema("R = {<A, B>}")
        sigma = parse_nfds("R:[A -> B]")
        checker = IncrementalChecker(schema, sigma)
        checker.insert("R", {"A": 1, "B": 1})
        checker.insert("R", {"A": 1, "B": 2})
        checker.insert("R", {"A": 1, "B": 3})
        checker.remove("R", {"A": 1, "B": 3})
        assert not checker.is_consistent()  # B 1 vs 2 remains
        checker.remove("R", {"A": 1, "B": 2})
        assert checker.is_consistent()


class TestCheckInsert:
    def test_dry_run_does_not_mutate(self, course_checker):
        course_checker.insert("Course", _course("a", 1, sid=1, age=20))
        probe = _course("b", 2, sid=1, age=99)
        found = course_checker.check_insert("Course", probe)
        assert found
        assert course_checker.is_consistent()
        assert len(course_checker) == 1

    def test_dry_run_clean(self, course_checker):
        assert course_checker.check_insert("Course", _course("a", 1)) == []


class TestEmptySets:
    def test_undefined_paths_do_not_constrain(self):
        schema = parse_schema("R = {<A, B: {<C>}, D>}")
        sigma = parse_nfds("R:[B:C -> D]")
        checker = IncrementalChecker(schema, sigma)
        # tuples with empty B never conflict on B:C -> D
        assert checker.insert("R", {"A": 1, "B": [], "D": 1}) == []
        assert checker.insert("R", {"A": 2, "B": [], "D": 2}) == []
        assert checker.is_consistent()
        assert checker.insert(
            "R", {"A": 3, "B": [{"C": 9}], "D": 3}) == []
        created = checker.insert(
            "R", {"A": 4, "B": [{"C": 9}], "D": 4})
        assert created


class TestAgreementWithBatchChecker:
    """Random insert/remove scripts: incremental verdict == batch."""

    def test_randomized_scripts(self):
        rng = random.Random(77)
        for _ in range(15):
            schema = random_schema(rng, max_fields=3, max_depth=2,
                                   set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
            checker = IncrementalChecker(schema, sigma)
            relation = schema.relation_names[0]
            pool = [
                next(iter(random_instance(rng, schema, tuples=1,
                                          domain=2).relation(relation)))
                for _ in range(6)
            ]
            present: list = []
            for step in range(12):
                if present and rng.random() < 0.3:
                    row = rng.choice(present)
                    present.remove(row)
                    checker.remove(relation, row)
                else:
                    row = rng.choice(pool)
                    if row not in present:
                        present.append(row)
                    checker.insert(relation, row)
                batch = satisfies_all(checker.to_instance(), sigma)
                assert checker.is_consistent() == batch, \
                    (sigma, present, checker.conflicts())

    def test_initial_instance_loading(self):
        instance = workloads.course_instance()
        checker = IncrementalChecker(workloads.course_schema(),
                                     workloads.course_sigma(), instance)
        assert checker.is_consistent()
        assert checker.to_instance().relation("Course") == \
            instance.relation("Course")

class TestLoadRows:
    """Bulk-loading a relation from a streamed JSONL dump."""

    def test_load_rows_from_jsonl_matches_instance_load(self, tmp_path):
        from repro.io.stream import dump_jsonl, iter_jsonl_elements

        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        instance = workloads.course_instance()
        path = tmp_path / "course.jsonl"
        dump_jsonl(path, instance.relation("Course"))

        streamed = IncrementalChecker(schema, sigma)
        loaded = streamed.load_rows(
            "Course", iter_jsonl_elements(path, schema, "Course"))
        reference = IncrementalChecker(schema, sigma, instance)

        assert loaded == len(instance.relation("Course"))
        assert streamed.to_instance() == reference.to_instance()
        assert streamed.conflicts() == reference.conflicts()
        assert streamed.is_consistent() == reference.is_consistent()

    def test_load_rows_is_idempotent(self):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        rows = list(workloads.course_instance().relation("Course"))
        checker = IncrementalChecker(schema, sigma)
        assert checker.load_rows("Course", rows) == len(rows)
        assert checker.load_rows("Course", rows) == 0  # all duplicates
        assert len(checker) == len(rows)

    def test_load_rows_surfaces_conflicts_once(self):
        schema = workloads.course_schema()
        sigma = parse_nfds("Course:[cnum -> time]")
        rows = [{"cnum": "x", "time": 1, "students": [], "books": []},
                {"cnum": "x", "time": 2, "students": [], "books": []}]
        checker = IncrementalChecker(schema, sigma)
        assert checker.load_rows("Course", rows) == 2
        conflicts = checker.conflicts()
        assert len(conflicts) == 1
        assert not checker.is_consistent()
        # a second sweep over the same state must not duplicate it
        assert checker.load_rows("Course", []) == 0
        assert checker.conflicts() == conflicts
