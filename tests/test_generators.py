"""Unit tests for the random generators and the workload catalogue."""

import random

import pytest

from repro.generators import (
    LabelSupply,
    candidate_paths,
    random_instance,
    random_nfd,
    random_satisfying_instance,
    random_schema,
    random_sigma,
    workloads,
)
from repro.nfd import satisfies_all
from repro.paths import parse_path
from repro.types import check_no_repeated_labels
from repro.values import check_instance, has_empty_sets, instance_conforms


class TestLabelSupply:
    def test_unique_and_deterministic(self):
        supply = LabelSupply()
        labels = [supply.next() for _ in range(30)]
        assert len(set(labels)) == 30
        assert labels[0] == "A"
        assert labels[26] == "A1"


class TestRandomSchema:
    def test_reproducible(self):
        assert random_schema(random.Random(5)) == \
            random_schema(random.Random(5))

    def test_valid_and_label_unique(self):
        rng = random.Random(6)
        for _ in range(20):
            schema = random_schema(rng, relations=2, max_depth=3)
            for name in schema.relation_names:
                check_no_repeated_labels(schema.relation_type(name))

    def test_depth_bound(self):
        rng = random.Random(7)
        for _ in range(20):
            schema = random_schema(rng, max_depth=1)
            for name in schema.relation_names:
                assert schema.relation_type(name).depth() <= 2


class TestRandomNFDs:
    def test_well_formed(self):
        rng = random.Random(8)
        for _ in range(50):
            schema = random_schema(rng)
            nfd = random_nfd(rng, schema)
            nfd.check_well_formed(schema)

    def test_sigma_has_no_trivial_members(self):
        rng = random.Random(9)
        schema = random_schema(rng)
        sigma = random_sigma(rng, schema, count=10)
        assert all(not nfd.is_trivial() for nfd in sigma)

    def test_candidate_paths_respect_base(self):
        schema = workloads.course_schema()
        inner = candidate_paths(schema, "Course", parse_path("students"))
        assert {str(p) for p in inner} == {"sid", "age", "grade"}


class TestRandomInstances:
    def test_conform_to_schema(self):
        rng = random.Random(10)
        for _ in range(20):
            schema = random_schema(rng)
            instance = random_instance(rng, schema, tuples=2)
            assert instance_conforms(instance)

    def test_no_empty_sets_by_default(self):
        rng = random.Random(11)
        for _ in range(20):
            schema = random_schema(rng)
            instance = random_instance(rng, schema, tuples=2)
            assert not has_empty_sets(instance)

    def test_empty_probability_produces_holes(self):
        rng = random.Random(12)
        saw_empty = False
        for _ in range(30):
            schema = random_schema(rng, set_probability=0.8)
            instance = random_instance(rng, schema, tuples=3,
                                       empty_probability=0.5)
            saw_empty = saw_empty or \
                has_empty_sets(instance, include_relations=False)
        assert saw_empty

    def test_satisfying_instance_satisfies(self):
        rng = random.Random(13)
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        instance = random_satisfying_instance(rng, schema, sigma,
                                              tuples=2, domain=3)
        if instance is not None:
            assert satisfies_all(instance, sigma)


class TestWorkloadCatalogue:
    @pytest.mark.parametrize("make_schema,make_sigma,make_instance", [
        (workloads.course_schema, workloads.course_sigma,
         workloads.course_instance),
        (workloads.university_schema, workloads.university_sigma,
         workloads.university_instance),
        (workloads.acedb_schema, workloads.acedb_sigma,
         workloads.acedb_instance),
        (workloads.warehouse_schema, workloads.warehouse_sigma,
         workloads.warehouse_instance),
    ])
    def test_instances_typecheck_and_satisfy(self, make_schema,
                                             make_sigma, make_instance):
        schema = make_schema()
        sigma = make_sigma()
        instance = make_instance()
        check_instance(instance)
        for nfd in sigma:
            nfd.check_well_formed(schema)
        assert satisfies_all(instance, sigma)

    def test_scaled_course_instance(self):
        rng = random.Random(14)
        instance = workloads.scaled_course_instance(rng, courses=10,
                                                    students_per_course=5)
        check_instance(instance)
        assert len(instance.relation("Course")) == 10
        assert satisfies_all(instance, workloads.course_sigma())

    def test_paper_fixture_shapes(self):
        assert len(workloads.figure1_instance().relation("R")) == 2
        assert len(workloads.example_3_2_instance().relation("R")) == 3
        assert len(workloads.example_a1_sigma()) == 6
        assert len(workloads.example_a2_sigma()) == 3
