"""Batch validation: single-pass engine vs the per-NFD checking loop.

The :class:`repro.nfd.ValidatorEngine` compiles one path-trie plan per
relation and validates a whole Σ in a single walk; the classic loop
traverses the instance once per NFD.  At |Σ|≈32 on the scaled Course
workload the dependencies overwhelmingly share base paths and
prefixes, so the shared walk should touch far fewer set elements.

``test_navigation_gate`` is the acceptance gate for the single-pass
claim: the engine must perform **at least 3× fewer element
navigations** (counted via ``ValidatorStats.elements_walked``) than the
sum of per-NFD walks, and it prints the measured wall-clock speedup
over the per-NFD loop of single-NFD engines (visible under ``-rA``).

The remaining benchmarks time both sides under pytest-benchmark.
"""

import random
import time

import pytest

from repro.generators import workloads
from repro.nfd import ValidatorEngine, parse_nfds, satisfies

#: |Σ| for the gate; the acceptance criterion is stated at 32.
SIGMA_SIZE = 32


def _benchmark_sigma():
    """32 NFDs over the Course schema, all satisfied by the scaled
    workload, with heavy base-path and prefix sharing."""
    texts = []
    for aug in ["", ", time", ", books:isbn", ", students:sid"]:
        for target in ["time", "students", "books"]:
            texts.append(f"Course:[cnum{aug} -> {target}]")
    for aug in ["", ", cnum", ", time", ", students:sid"]:
        texts.append(f"Course:[books:isbn{aug} -> books:title]")
    for aug in ["", ", cnum", ", time", ", books:isbn"]:
        texts.append(f"Course:[students:sid{aug} -> students:age]")
    texts += [
        "Course:[cnum, students:sid -> students:grade]",
        "Course:[cnum, time, students:sid -> students:grade]",
        "Course:[time, students:sid -> cnum]",
        "Course:[time, students:sid, books:isbn -> cnum]",
        "Course:students:[sid -> grade]",
        "Course:students:[sid -> age]",
        "Course:students:[sid, age -> grade]",
        "Course:books:[isbn -> title]",
        "Course:books:[isbn, title -> title]",
        "Course:[cnum, books:isbn -> books:isbn]",
        "Course:[students:age, students:sid -> students:age]",
        "Course:[cnum, time -> time]",
    ]
    sigma = parse_nfds("\n".join(texts))
    assert len(sigma) == SIGMA_SIZE
    return sigma


def _workload():
    schema = workloads.course_schema()
    instance = workloads.scaled_course_instance(
        random.Random(11), courses=60, students_per_course=8,
        books_per_course=4)
    return schema, _benchmark_sigma(), instance


def test_navigation_gate():
    """Gate: ≥3× fewer element navigations than the per-NFD loop."""
    schema, sigma, instance = _workload()

    engine = ValidatorEngine(schema, sigma)
    start = time.perf_counter()
    assert engine.check(instance) is True
    engine_seconds = time.perf_counter() - start
    single_pass = engine.stats.elements_walked

    solos = [ValidatorEngine(schema, [nfd]) for nfd in sigma]
    start = time.perf_counter()
    assert all(solo.check(instance) for solo in solos)
    loop_seconds = time.perf_counter() - start
    per_nfd = sum(solo.stats.elements_walked for solo in solos)

    ratio = per_nfd / single_pass
    speedup = loop_seconds / engine_seconds
    print(f"\nbatch validation at |sigma|={len(sigma)}: "
          f"{single_pass} elements walked single-pass vs {per_nfd} "
          f"per-NFD ({ratio:.1f}x fewer navigations); "
          f"wall-clock {engine_seconds:.4f}s vs {loop_seconds:.4f}s "
          f"({speedup:.2f}x speedup over the per-NFD loop)")
    assert single_pass * 3 <= per_nfd, (
        f"single-pass engine walked {single_pass} elements, per-NFD "
        f"loop walked {per_nfd}: ratio {ratio:.2f} < 3"
    )


def test_engine_agrees_on_violations():
    """Sanity: engine and per-NFD loop agree on the seed instance too."""
    schema, sigma, _ = _workload()
    seed_instance = workloads.course_instance()
    engine = ValidatorEngine(schema, sigma)
    assert engine.check(seed_instance) == \
        all(satisfies(seed_instance, nfd) for nfd in sigma)


def test_single_pass_engine(benchmark):
    schema, sigma, instance = _workload()
    engine = ValidatorEngine(schema, sigma)
    benchmark.group = f"batch validation |sigma|={SIGMA_SIZE}"
    assert benchmark(lambda: engine.check(instance)) is True


def test_per_nfd_loop(benchmark):
    schema, sigma, instance = _workload()
    benchmark.group = f"batch validation |sigma|={SIGMA_SIZE}"
    solos = [ValidatorEngine(schema, [nfd]) for nfd in sigma]
    assert benchmark(
        lambda: all(solo.check(instance) for solo in solos)) is True


def test_engine_reuse_across_revalidations(benchmark):
    """The serving pattern: one compiled engine, many instances."""
    schema, sigma, _ = _workload()
    engine = ValidatorEngine(schema, sigma)
    instances = [
        workloads.scaled_course_instance(
            random.Random(seed), courses=20, students_per_course=6,
            books_per_course=3)
        for seed in range(5)
    ]

    def revalidate():
        return all(engine.check(inst) for inst in instances)

    benchmark.group = "engine reuse"
    assert benchmark(revalidate) is True
