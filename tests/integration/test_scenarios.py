"""Cross-module scenario tests: warehouse integration, AceDB, carryover."""

from repro.analysis import (
    implied_singletons,
    minimal_cover,
    minimal_keys,
    nfd_after_nest,
)
from repro.generators import workloads
from repro.inference import FD, ClosureEngine, equivalent_sets
from repro.io import dump_bundle, load_bundle
from repro.nfd import (
    find_violation,
    parse_nfd,
    satisfies,
    satisfies_all,
)
from repro.paths import parse_path
from repro.types import Schema, parse_schema
from repro.values import Instance, nest, nest_type, unnest


class TestWarehouseScenario:
    """The introduction's data-integration motivation, end to end."""

    def test_clean_warehouse_passes(self):
        assert satisfies_all(workloads.warehouse_instance(),
                                  workloads.warehouse_sigma())

    def test_inconsistent_description_is_caught_with_witness(self):
        instance = workloads.warehouse_instance()
        # StoreB renames the widget: the warehouse-wide description
        # consistency NFD must flag the merged view.
        broken = instance.with_relation("Warehouse", [
            {"customer": "ada",
             "orders": [
                 {"order_id": 1,
                  "lines": [{"sku": "widget", "description": "Widget",
                             "qty": 2}]},
                 {"order_id": 2,
                  "lines": [{"sku": "widget", "description": "Gizmo",
                             "qty": 5}]},
             ]},
        ])
        nfd = parse_nfd(
            "Warehouse:[orders:lines:sku -> orders:lines:description]")
        violation = find_violation(broken, nfd)
        assert violation is not None
        assert "widget" in violation.describe()

    def test_view_constraint_inference(self):
        """Order ids determine customers in the view: derivable from the
        view key declaration plus the line-set dependency."""
        schema = workloads.warehouse_schema()
        sigma = workloads.warehouse_sigma() + [
            parse_nfd("Warehouse:[orders:order_id -> customer]"),
        ]
        engine = ClosureEngine(schema, sigma)
        assert engine.implies(
            parse_nfd("Warehouse:[orders:order_id -> orders:lines]"))
        assert engine.implies(
            parse_nfd("Warehouse:[orders:order_id -> customer]"))
        assert not engine.implies(
            parse_nfd("Warehouse:[customer -> orders:order_id]"))


class TestAceDBScenario:
    def test_singleton_inference_matches_schema_intent(self):
        schema = workloads.acedb_schema()
        sigma = workloads.acedb_sigma()
        singles = {str(p) for p in implied_singletons(schema, sigma,
                                                      "Gene")}
        assert singles == {"name", "map_position"}

    def test_locus_is_the_key(self):
        schema = workloads.acedb_schema()
        keys = minimal_keys(schema, workloads.acedb_sigma(), "Gene")
        assert frozenset({parse_path("locus")}) in keys

    def test_minimal_cover_is_equivalent(self):
        schema = workloads.acedb_schema()
        sigma = workloads.acedb_sigma()
        cover = minimal_cover(schema, sigma)
        assert equivalent_sets(schema, sigma, cover)


class TestCarryoverScenario:
    """Flat registrar data nested into the Course shape keeps its FDs."""

    def test_nest_enrollments(self):
        flat_schema = parse_schema(
            "Enrollment = {<cnum: string, time: int, sid: int, "
            "grade: string>}")
        rows = [
            {"cnum": "cis550", "time": 10, "sid": 1, "grade": "A"},
            {"cnum": "cis550", "time": 10, "sid": 2, "grade": "B"},
            {"cnum": "cis500", "time": 12, "sid": 1, "grade": "A"},
        ]
        flat = Instance(flat_schema, {"Enrollment": rows})
        nested_type = nest_type(flat_schema.relation_type("Enrollment"),
                                "students", ["sid", "grade"])
        nested_schema = Schema({"Enrollment": nested_type})
        nested = Instance(nested_schema, {
            "Enrollment": nest(flat.relation("Enrollment"),
                               "students", ["sid", "grade"]),
        })
        # cnum -> time survives as a top-level NFD
        carried = nfd_after_nest("Enrollment", FD({"cnum"}, "time"),
                                 ["sid", "grade"], "students")
        assert satisfies(nested, carried)
        # and unnesting restores the original rows
        assert unnest(nested.relation("Enrollment"), "students") == \
            flat.relation("Enrollment")


class TestPersistenceScenario:
    def test_bundle_survives_disk_roundtrip(self, tmp_path):
        schema = workloads.course_schema()
        sigma = workloads.course_sigma()
        instance = workloads.course_instance()
        path = tmp_path / "bundle.json"
        path.write_text(dump_bundle(schema, sigma, instance))
        schema2, sigma2, instance2 = load_bundle(path.read_text())
        engine = ClosureEngine(schema2, sigma2)
        assert engine.implies(
            parse_nfd("Course:[students:sid, time -> books]"))
        assert instance2 == instance
