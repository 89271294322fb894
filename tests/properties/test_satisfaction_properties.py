"""Property tests: the three satisfaction semantics and their relations.

* the literal Definition-2.4 checker and the hash-grouped checker agree
  on *every* instance (they implement the same definition);
* on instances without empty sets they also agree with the pure
  first-order evaluation of the Section 2.2 translation;
* with empty sets, Definition 2.4 is weaker than FOL (trivially-true
  clause): FOL-satisfaction implies Def-2.4-satisfaction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_nfd, random_schema
from repro.nfd import ValidatorEngine, holds_fol, satisfies

from .strategies import schema_sigma_instance


def _draw_case(seed: int, empty_probability: float):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    nfd = random_nfd(rng, schema, max_lhs=2)
    instance = random_instance(rng, schema, tuples=2, domain=2,
                               empty_probability=empty_probability)
    return instance, nfd


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fast_checker_agrees_everywhere(seed):
    instance, nfd = _draw_case(seed, empty_probability=0.3)
    engine = ValidatorEngine(instance.schema, [nfd])
    assert engine.check(instance) == satisfies(instance, nfd)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_def_2_4_equals_fol_without_empty_sets(seed):
    instance, nfd = _draw_case(seed, empty_probability=0.0)
    assert satisfies(instance, nfd) == holds_fol(instance, nfd)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fol_is_at_least_as_strong_with_empty_sets(seed):
    instance, nfd = _draw_case(seed, empty_probability=0.4)
    if holds_fol(instance, nfd):
        assert satisfies(instance, nfd)


@settings(max_examples=60, deadline=None)
@given(schema_sigma_instance())
def test_violation_witness_iff_not_satisfied(case):
    from repro.nfd import find_violation
    _, sigma, instance = case
    for nfd in sigma:
        witness = find_violation(instance, nfd)
        assert (witness is None) == satisfies(instance, nfd)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_satisfaction_is_invariant_under_simple_form(seed):
    """Push-in/pull-out preserve meaning on every instance (Section 2.3
    claims equivalence; this is its semantic half)."""
    from repro.nfd import to_simple
    instance, nfd = _draw_case(seed, empty_probability=0.0)
    assert satisfies(instance, nfd) == satisfies(instance, to_simple(nfd))
