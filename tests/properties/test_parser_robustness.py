"""Parser robustness: garbage in, ReproError (never a crash) out."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.nfd import parse_nfd, parse_nfd_family
from repro.paths import parse_path
from repro.types import parse_schema, parse_type

_TEXT = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Z"),
        max_codepoint=0x2FFF,
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_parse_type_never_crashes(text):
    try:
        parse_type(text)
    except ReproError:
        pass  # any library error is fine; non-library crashes are not


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_parse_schema_never_crashes(text):
    try:
        parse_schema(text)
    except ReproError:
        pass


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_parse_path_never_crashes(text):
    try:
        parse_path(text)
    except ReproError:
        pass


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_parse_nfd_never_crashes(text):
    try:
        parse_nfd(text)
        parse_nfd_family(text)
    except ReproError:
        pass


class TestUnicodeLabels:
    """Python identifiers admit unicode; the pipeline must too."""

    def test_unicode_schema_roundtrip(self):
        from repro.types import format_type
        schema = parse_schema("Curso = {<número: string, años: int>}")
        rel_type = schema.relation_type("Curso")
        assert parse_type(format_type(rel_type)) == rel_type

    def test_unicode_nfd_end_to_end(self):
        from repro.inference import ClosureEngine
        from repro.values import Instance
        from repro.nfd import satisfies

        schema = parse_schema("Curso = {<número: string, años: int>}")
        sigma = [parse_nfd("Curso:[número -> años]")]
        engine = ClosureEngine(schema, sigma)
        assert engine.implies(parse_nfd("Curso:[número -> años]"))
        instance = Instance(schema, {"Curso": [
            {"número": "a", "años": 1},
            {"número": "a", "años": 2},
        ]})
        assert not satisfies(instance, sigma[0])
