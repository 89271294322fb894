"""The public repro.testing strategies work as advertised."""

from hypothesis import given, settings

from repro import testing
from repro.nfd import satisfies_all
from repro.types import Schema, check_no_repeated_labels
from repro.values import Instance, instance_conforms


@settings(max_examples=30, deadline=None)
@given(testing.schemas(max_depth=3))
def test_schemas_are_valid(schema):
    assert isinstance(schema, Schema)
    for name in schema.relation_names:
        check_no_repeated_labels(schema.relation_type(name))


@settings(max_examples=30, deadline=None)
@given(testing.schema_with_sigma())
def test_sigma_is_well_formed(case):
    schema, sigma = case
    # sigma can be empty on degenerate one-attribute schemas, where the
    # only expressible NFD is trivial
    for nfd in sigma:
        nfd.check_well_formed(schema)


@settings(max_examples=30, deadline=None)
@given(testing.schema_with_instance(empty_probability=0.2))
def test_instances_conform(case):
    schema, instance = case
    assert isinstance(instance, Instance)
    assert instance_conforms(instance)


@settings(max_examples=30, deadline=None)
@given(testing.full_bundles(satisfying=True))
def test_satisfying_bundles_satisfy(case):
    schema, sigma, instance = case
    if instance is None:
        return  # rejection sampling missed; documented behaviour
    assert satisfies_all(instance, sigma)


def _course_schema():
    from repro.generators import workloads
    return workloads.course_schema()


@settings(max_examples=15, deadline=None)
@given(testing.nfd_sets(_course_schema()),
       testing.instances(_course_schema()))
def test_fixed_schema_strategies(sigma, instance):
    schema = _course_schema()
    for nfd in sigma:
        nfd.check_well_formed(schema)
    assert instance_conforms(instance)
