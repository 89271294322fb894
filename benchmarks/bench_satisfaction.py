"""D1/E12 — satisfaction checking: literal pairwise vs hash-grouped.

The literal Definition-2.4 checker enumerates element pairs (quadratic
in relation size); the hash-grouped production checker
(:class:`repro.nfd.ValidatorEngine`) makes one pass over bindings.  Both implement the same semantics (the property tests pin
that down); this bench measures the gap as the Course instance grows.

Expected shape: the fast checker scales roughly linearly with instance
size, the naive one quadratically — the ratio widens with n.
"""

import random

import pytest

from repro.generators import workloads
from repro.nfd import ValidatorEngine, parse_nfd, satisfies

SIZES = [10, 30, 60]

#: The most binding-heavy of the Course constraints.
NFD_TEXT = "Course:[books:isbn -> books:title]"


def _instance(courses: int):
    rng = random.Random(1000 + courses)
    return workloads.scaled_course_instance(
        rng, courses=courses, students_per_course=4, books_per_course=3)


@pytest.mark.parametrize("courses", SIZES)
def test_naive_checker(benchmark, courses):
    instance = _instance(courses)
    nfd = parse_nfd(NFD_TEXT)
    benchmark.group = f"satisfaction n={courses}"
    assert benchmark(lambda: satisfies(instance, nfd)) is True


@pytest.mark.parametrize("courses", SIZES)
def test_fast_checker(benchmark, courses):
    instance = _instance(courses)
    nfd = parse_nfd(NFD_TEXT)
    engine = ValidatorEngine(instance.schema, [nfd])
    benchmark.group = f"satisfaction n={courses}"
    assert benchmark(lambda: engine.check(instance)) is True


def test_full_sigma_fast(benchmark):
    """Validating the whole constraint set on a mid-size instance —
    the nightly-check workload of the examples."""
    instance = _instance(40)
    engine = ValidatorEngine(instance.schema, workloads.course_sigma())
    assert benchmark(lambda: engine.check(instance)) is True


def test_depth_four_workload(benchmark):
    """Satisfaction across four nesting levels (the Trial workload):
    binding enumeration must stay interactive at depth."""
    instance = workloads.trial_instance()
    engine = ValidatorEngine(instance.schema, workloads.trial_sigma())
    assert benchmark(lambda: engine.check(instance)) is True
