"""Property tests: view propagation soundness and proof certificates."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    random_nfd,
    random_satisfying_instance,
    random_schema,
    random_sigma,
)
from repro.inference import ClosureEngine, compile_proof
from repro.nfd import satisfies_all
from repro.types.base import BaseType
from repro.values import Instance
from repro.views import Base, evaluate, propagate_nfds, view_schema


def _random_view(rng, expr, schema, steps):
    """Grow a random pipeline over a nested schema."""
    from repro.views import output_type

    nest_counter = 0
    for _ in range(steps):
        element = output_type(expr, schema).element
        labels = list(element.labels)
        base_attrs = [label for label in labels
                      if isinstance(element.field(label), BaseType)]
        set_attrs = [label for label in labels
                     if not isinstance(element.field(label), BaseType)]
        op = rng.randrange(4)
        if op == 0 and len(labels) > 1:
            keep = rng.sample(labels, rng.randint(1, len(labels) - 1))
            expr = expr.project(*keep)
        elif op == 1 and base_attrs:
            expr = expr.select(rng.choice(base_attrs), rng.randrange(2))
        elif op == 2 and set_attrs:
            expr = expr.unnest(rng.choice(set_attrs))
        elif op == 3 and base_attrs and len(labels) > 1:
            nested = rng.sample(base_attrs,
                                rng.randint(1, len(base_attrs)))
            if len(nested) < len(labels):
                nest_counter += 1
                expr = expr.nest(f"VN{nest_counter}", nested)
    return expr


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_view_propagation_is_sound(seed):
    """Propagated NFDs hold on every materialized view of every
    Sigma-satisfying (empty-set-free) source instance."""
    from repro.errors import ReproError

    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.4)
    relation = schema.relation_names[0]
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    instance = random_satisfying_instance(rng, schema, sigma, tuples=2,
                                          domain=2, max_attempts=80)
    if instance is None:
        return
    expr = _random_view(rng, Base(relation), schema,
                        steps=rng.randint(1, 3))
    try:
        carried = propagate_nfds(expr, schema, sigma)
        target_schema = view_schema(expr, schema)
        view_value = evaluate(expr, instance)
    except ReproError:
        return  # the random pipeline was ill-formed (e.g. label clash)
    view_instance = Instance(target_schema, {"View": view_value})
    assert satisfies_all(view_instance, carried), \
        (expr, sigma, carried, instance)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_proof_certificates_for_implied_nfds(seed):
    """compile_proof succeeds on every implied NFD and concludes it."""
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    engine = ClosureEngine(schema, sigma)
    for _ in range(4):
        candidate = random_nfd(rng, schema, max_lhs=2,
                               local_probability=0.4)
        if not engine.implies(candidate):
            continue
        proof = compile_proof(engine, candidate)
        assert proof.conclusion() == candidate
        assert len(proof) >= 1
