"""The hash-grouped production checker must agree with the literal one.

:class:`repro.nfd.ValidatorEngine` decides Definition 2.4 with one
hash-grouped pass per base set; :func:`repro.nfd.satisfies` enumerates
pairs exactly as the definition reads.  These checks pin the two
together one NFD at a time on the paper's workloads and on random
instances with and without empty sets.
"""

import random

from repro.generators import random_instance, random_nfd, random_schema
from repro.generators import workloads
from repro.nfd import ValidatorEngine, parse_nfd, satisfies


def _engine_says(instance, nfd) -> bool:
    return ValidatorEngine(instance.schema, [nfd]).check(instance)


class TestAgreementOnWorkloads:
    def test_course(self):
        instance = workloads.course_instance()
        for nfd in workloads.course_sigma():
            assert _engine_says(instance, nfd) == \
                satisfies(instance, nfd)

    def test_figure1(self):
        instance = workloads.figure1_instance()
        nfd = workloads.figure1_nfd()
        assert _engine_says(instance, nfd) == satisfies(instance, nfd)

    def test_example_3_2(self):
        instance = workloads.example_3_2_instance()
        for text in ["R:[A -> B:C]", "R:[B:C -> D]", "R:[A -> D]",
                     "R:[B:C -> E]", "R:[B -> E]", "R:[A, B -> E]"]:
            nfd = parse_nfd(text)
            assert _engine_says(instance, nfd) == \
                satisfies(instance, nfd), text


class TestAgreementRandomized:
    def test_random_sweep_no_empty_sets(self):
        rng = random.Random(7)
        for _ in range(60):
            schema = random_schema(rng, max_fields=3, max_depth=2)
            instance = random_instance(rng, schema, tuples=2, domain=2)
            nfd = random_nfd(rng, schema, max_lhs=2)
            assert _engine_says(instance, nfd) == \
                satisfies(instance, nfd), (nfd, instance)

    def test_random_sweep_with_empty_sets(self):
        rng = random.Random(8)
        for _ in range(60):
            schema = random_schema(rng, max_fields=3, max_depth=2)
            instance = random_instance(rng, schema, tuples=2, domain=2,
                                       empty_probability=0.3)
            nfd = random_nfd(rng, schema, max_lhs=2)
            assert _engine_says(instance, nfd) == \
                satisfies(instance, nfd), (nfd, instance)
