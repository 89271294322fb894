"""Unit tests for the semantic countermodel search."""

import random

from repro.generators import workloads
from repro.inference import search_countermodel, \
    semantic_implication_verdict
from repro.nfd import parse_nfd, satisfies, satisfies_all
from repro.types import parse_schema


class TestSearchCountermodel:
    def test_finds_separator_for_non_implication(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = [parse_nfd("R:[A -> B]")]
        candidate = parse_nfd("R:[B -> A]")
        rng = random.Random(1)
        witness = search_countermodel(schema, sigma, candidate, rng)
        assert witness is not None
        assert satisfies_all(witness, sigma)
        assert not satisfies(witness, candidate)

    def test_none_for_implication(self):
        schema = parse_schema("R = {<A, B, C>}")
        sigma = [parse_nfd("R:[A -> B]"), parse_nfd("R:[B -> C]")]
        candidate = parse_nfd("R:[A -> C]")
        rng = random.Random(2)
        assert search_countermodel(schema, sigma, candidate, rng,
                                   attempts=100) is None
        assert semantic_implication_verdict(schema, sigma, candidate,
                                            random.Random(3),
                                            attempts=100)

    def test_random_only_mode(self):
        # With the construction disabled the random search still finds
        # flat separators quickly.
        schema = parse_schema("R = {<A, B>}")
        witness = search_countermodel(
            schema, [], parse_nfd("R:[A -> B]"), random.Random(4),
            use_construction=False)
        assert witness is not None

    def test_nested_separator(self):
        schema = workloads.section_3_1_schema()
        sigma = workloads.section_3_1_sigma()
        candidate = parse_nfd("R:A:[E -> B]")
        witness = search_countermodel(schema, sigma, candidate,
                                      random.Random(5))
        assert witness is not None
        assert satisfies_all(witness, sigma)
        assert not satisfies(witness, candidate)
