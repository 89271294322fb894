"""D4 (ours) — incremental checking vs full revalidation.

The warehouse motivation: on a tuple-by-tuple refresh, the incremental
checker updates per-NFD indexes with just the new tuple's bindings,
while the batch approach re-validates the whole instance.

Expected shape: per-insert cost is flat for the incremental checker and
grows linearly with instance size for the batch re-check, so the ratio
widens with n.
"""

import random

import pytest

from repro.generators import workloads
from repro.incremental import IncrementalChecker
from repro.nfd import ValidatorEngine

SIZES = [20, 60]


def _rows(n):
    rng = random.Random(500 + n)
    instance = workloads.scaled_course_instance(
        rng, courses=n + 1, students_per_course=4, books_per_course=3)
    rows = list(instance.relation("Course"))
    return rows[:-1], rows[-1]


@pytest.mark.parametrize("size", SIZES)
def test_incremental_insert(benchmark, size):
    base_rows, new_row = _rows(size)
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    checker = IncrementalChecker(schema, sigma)
    for row in base_rows:
        checker.insert("Course", row)
    benchmark.group = f"one insert at n={size}"

    def insert_and_rollback():
        conflicts = checker.insert("Course", new_row)
        checker.remove("Course", new_row)
        return conflicts

    assert benchmark(insert_and_rollback) == []


@pytest.mark.parametrize("size", SIZES)
def test_batch_recheck(benchmark, size):
    base_rows, new_row = _rows(size)
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    checker = IncrementalChecker(schema, sigma)
    for row in base_rows + [new_row]:
        checker.insert("Course", row)
    instance = checker.to_instance()
    benchmark.group = f"one insert at n={size}"

    engine = ValidatorEngine(schema, sigma)
    verdict = benchmark(lambda: engine.check(instance))
    assert verdict is True


def test_admission_control(benchmark):
    """check_insert dry runs on a loaded checker — the hot path of a
    validating loader."""
    base_rows, new_row = _rows(40)
    schema = workloads.course_schema()
    sigma = workloads.course_sigma()
    checker = IncrementalChecker(schema, sigma)
    for row in base_rows:
        checker.insert("Course", row)

    assert benchmark(lambda: checker.check_insert("Course", new_row)) == []
