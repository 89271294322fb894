"""Unit and randomized tests for the chase substrate."""

import random

import pytest

from repro.chase import (
    Tableau,
    distinguished,
    fd_implies_chase,
    lossless_join,
    nondistinguished,
    repair,
    replace_value,
)
from repro.errors import InferenceError
from repro.generators import random_instance, random_schema, random_sigma
from repro.generators import workloads
from repro.inference import FD, fd_implies
from repro.nfd import parse_nfds, satisfies_all
from repro.values import Atom, check_instance, from_python


class TestTableau:
    def test_symbols(self):
        assert distinguished("A") == distinguished("A")
        assert distinguished("A") != nondistinguished(1)
        assert str(distinguished("A")) == "aA"

    def test_add_row_requires_all_attributes(self):
        tableau = Tableau(["A", "B"])
        with pytest.raises(InferenceError):
            tableau.add_row({"A": distinguished("A")})

    def test_equate_prefers_distinguished(self):
        tableau = Tableau(["A"])
        b = tableau.fresh()
        tableau.add_row({"A": b})
        tableau.equate(distinguished("A"), b)
        assert tableau.rows[0]["A"] == distinguished("A")

    def test_component_rows(self):
        tableau = Tableau(["A", "B", "C"])
        tableau.add_component_row(["A", "B"])
        tableau.add_component_row(["B", "C"])
        assert len(tableau) == 2
        assert tableau.rows[0]["A"] == distinguished("A")
        assert not tableau.rows[0]["C"].is_distinguished

    def test_to_text(self):
        tableau = Tableau(["A", "B"])
        tableau.add_component_row(["A"])
        text = tableau.to_text()
        assert "A" in text and "aA" in text


class TestFDChaseImplication:
    ATTRS = ["A", "B", "C", "D"]

    def test_transitivity(self):
        fds = [FD({"A"}, "B"), FD({"B"}, "C")]
        assert fd_implies_chase(self.ATTRS, fds, FD({"A"}, "C"))
        assert not fd_implies_chase(self.ATTRS, fds, FD({"C"}, "A"))

    def test_agrees_with_armstrong_randomized(self):
        rng = random.Random(42)
        attributes = ["A", "B", "C", "D", "E"]
        for _ in range(40):
            fds = [
                FD(set(rng.sample(attributes, rng.randint(1, 2))),
                   rng.choice(attributes))
                for _ in range(rng.randint(1, 5))
            ]
            candidate = FD(
                set(rng.sample(attributes, rng.randint(1, 2))),
                rng.choice(attributes))
            assert fd_implies_chase(attributes, fds, candidate) == \
                fd_implies(fds, candidate), (fds, candidate)


class TestLosslessJoin:
    ATTRS = ["A", "B", "C"]

    def test_textbook_lossless(self):
        # R(A,B,C), A -> B: decomposition {AB, AC} is lossless.
        fds = [FD({"A"}, "B")]
        assert lossless_join(self.ATTRS, [["A", "B"], ["A", "C"]], fds)

    def test_textbook_lossy(self):
        # without any FDs, {AB, BC} is lossy unless B is a key part...
        assert not lossless_join(self.ATTRS, [["A", "B"], ["B", "C"]], [])

    def test_fd_makes_it_lossless(self):
        fds = [FD({"B"}, "C")]
        assert lossless_join(self.ATTRS, [["A", "B"], ["B", "C"]], fds)

    def test_single_component_is_lossless(self):
        assert lossless_join(self.ATTRS, [["A", "B", "C"]], [])


class TestReplaceValue:
    def test_atom_replacement_cascades(self):
        value = from_python([{"A": 1, "B": [{"C": 1}]},
                             {"A": 2, "B": [{"C": 1}]}])
        replaced = replace_value(value, Atom(2), Atom(1))
        # both rows now identical -> the set collapses to one element
        assert len(replaced) == 1

    def test_set_replacement(self):
        old = from_python([{"C": 1}])
        new = from_python([{"C": 2}])
        value = from_python({"A": 1, "B": [{"C": 1}]})
        replaced = replace_value(value, old, new)
        assert replaced.get("B") == new


class TestRepair:
    def test_flat_repair(self):
        schema_sigma = parse_nfds("R:[A -> B]")
        from repro.types import parse_schema
        from repro.values import Instance
        schema = parse_schema("R = {<A, B>}")
        broken = Instance(schema, {"R": [
            {"A": 1, "B": 10}, {"A": 1, "B": 20}, {"A": 2, "B": 30},
        ]})
        fixed = repair(broken, schema_sigma)
        check_instance(fixed)
        assert satisfies_all(fixed, schema_sigma)
        # the two clashing rows merged
        assert len(fixed.relation("R")) == 2

    def test_nested_repair(self):
        sigma = workloads.course_sigma()
        broken = workloads.course_instance().with_relation("Course", [
            {"cnum": "a", "time": 1,
             "students": [{"sid": 1, "age": 20, "grade": "A"}],
             "books": [{"isbn": 7, "title": "X"}]},
            {"cnum": "b", "time": 2,
             "students": [{"sid": 1, "age": 21, "grade": "A"}],  # age!
             "books": [{"isbn": 7, "title": "Y"}]},              # title!
        ])
        assert not satisfies_all(broken, sigma)
        fixed = repair(broken, sigma)
        check_instance(fixed)
        assert satisfies_all(fixed, sigma)

    def test_already_satisfying_is_identity(self):
        sigma = workloads.course_sigma()
        instance = workloads.course_instance()
        assert repair(instance, sigma) == instance

    def test_randomized_repair_always_satisfies(self):
        rng = random.Random(9)
        for _ in range(15):
            schema = random_schema(rng, max_fields=3, max_depth=2,
                                   set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
            instance = random_instance(rng, schema, tuples=3, domain=2)
            fixed = repair(instance, sigma)
            check_instance(fixed)
            assert satisfies_all(fixed, sigma), (sigma, instance)

    def test_repair_is_idempotent(self):
        rng = random.Random(10)
        schema = random_schema(rng, max_fields=3, max_depth=2)
        sigma = random_sigma(rng, schema, count=2)
        instance = random_instance(rng, schema, tuples=3, domain=2)
        fixed = repair(instance, sigma)
        assert repair(fixed, sigma) == fixed
