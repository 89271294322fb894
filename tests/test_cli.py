"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.io import dump_bundle, load_bundle
from repro.nfd import satisfies_all


@pytest.fixture
def course_bundle(tmp_path):
    path = tmp_path / "course.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(),
                                workloads.course_instance()))
    return str(path)


@pytest.fixture
def broken_bundle(tmp_path):
    instance = workloads.course_instance().with_relation("Course", [
        {"cnum": "a", "time": 1,
         "students": [{"sid": 1, "age": 20, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
        {"cnum": "b", "time": 2,
         "students": [{"sid": 1, "age": 99, "grade": "A"}],
         "books": [{"isbn": 1, "title": "X"}]},
    ])
    path = tmp_path / "broken.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(), instance))
    return str(path)


class TestCheck:
    def test_clean(self, course_bundle, capsys):
        assert main(["check", course_bundle]) == 0
        assert "satisfies all" in capsys.readouterr().out

    def test_violations_reported(self, broken_bundle, capsys):
        assert main(["check", broken_bundle]) == 1
        out = capsys.readouterr().out
        assert "students:sid" in out
        assert "violation" in out

    def test_stats_go_to_stderr(self, course_bundle, capsys):
        assert main(["check", course_bundle, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "validator stats" not in captured.out
        assert "validator stats (single-pass batch engine)" in \
            captured.err
        assert "elements walked" in captured.err
        assert "satisfies all" in captured.out

    def test_stats_keep_exit_code_on_violation(self, broken_bundle,
                                               capsys):
        assert main(["check", broken_bundle, "--stats"]) == 1
        captured = capsys.readouterr()
        assert "violation" in captured.out
        assert "validator stats" in captured.err

    def test_stats_off_by_default(self, course_bundle, capsys):
        assert main(["check", course_bundle]) == 0
        assert "validator stats" not in capsys.readouterr().err


class TestImplies:
    def test_implied(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[students:sid, time -> books]"]) == 0
        assert "implied" in capsys.readouterr().out

    def test_not_implied(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[time -> cnum]"]) == 1
        assert "not implied" in capsys.readouterr().out

    def test_nonempty_gating(self, tmp_path, capsys):
        schema = workloads.example_3_2_schema()
        from repro.nfd import parse_nfds
        sigma = parse_nfds("R:[A -> B:C]\nR:[B:C -> D]")
        path = tmp_path / "b.json"
        path.write_text(dump_bundle(schema, sigma))
        # fully pessimistic: only the relation is declared non-empty
        assert main(["implies", str(path), "R:[A -> D]",
                     "--nonempty", "R"]) == 1
        # default (Section 3.1 assumption): the chain goes through
        assert main(["implies", str(path), "R:[A -> D]"]) == 0

    def test_spec_persisted_in_bundle(self, tmp_path, capsys):
        from repro.inference import NonEmptySpec
        from repro.nfd import parse_nfds
        from repro.paths import parse_path
        schema = workloads.example_3_2_schema()
        sigma = parse_nfds("R:[A -> B:C]\nR:[B:C -> D]")
        spec = NonEmptySpec({parse_path("R")})
        path = tmp_path / "gated.json"
        path.write_text(dump_bundle(schema, sigma, nonempty=spec))
        # the bundle's own spec gates the inference ...
        assert main(["implies", str(path), "R:[A -> D]"]) == 1
        # ... and explicit flags override it
        assert main(["implies", str(path), "R:[A -> D]",
                     "--nonempty", "R", "--nonempty", "R:B"]) == 0


class TestClosure:
    def test_closure_output(self, course_bundle, capsys):
        assert main(["closure", course_bundle, "Course", "cnum"]) == 0
        out = capsys.readouterr().out
        assert "books" in out
        assert "time" in out


class TestExplain:
    def test_explains_implied(self, course_bundle, capsys):
        assert main(["explain", course_bundle,
                     "Course:[students:sid, time -> books]"]) == 0
        assert "transitivity" in capsys.readouterr().out

    def test_rejects_non_implied(self, course_bundle, capsys):
        assert main(["explain", course_bundle,
                     "Course:[time -> cnum]"]) == 1


class TestProve:
    def test_compiles_proof(self, course_bundle, capsys):
        assert main(["prove", course_bundle,
                     "Course:[students:sid, time -> books]"]) == 0
        out = capsys.readouterr().out
        assert "hypotheses" in out
        assert "by transitivity" in out

    def test_not_implied(self, course_bundle, capsys):
        assert main(["prove", course_bundle,
                     "Course:[time -> cnum]"]) == 1


class TestCounter:
    def test_prints_tables(self, course_bundle, capsys):
        assert main(["counter", course_bundle,
                     "Course:[time -> cnum]"]) == 0
        assert "cnum" in capsys.readouterr().out

    def test_writes_bundle(self, course_bundle, tmp_path, capsys):
        out_path = tmp_path / "witness.json"
        assert main(["counter", course_bundle, "Course:[time -> cnum]",
                     "-o", str(out_path)]) == 0
        schema, sigma, witness = load_bundle(out_path.read_text())
        assert witness is not None
        assert satisfies_all(witness, sigma)

    def test_implied_has_no_countermodel(self, course_bundle, capsys):
        assert main(["counter", course_bundle,
                     "Course:[cnum -> time]"]) == 1


class TestRenderKeysRepair:
    def test_render(self, course_bundle, capsys):
        assert main(["render", course_bundle]) == 0
        assert "cis550" in capsys.readouterr().out

    def test_keys(self, course_bundle, capsys):
        assert main(["keys", course_bundle]) == 0
        assert "cnum" in capsys.readouterr().out

    def test_repair_roundtrip(self, broken_bundle, tmp_path, capsys):
        out_path = tmp_path / "fixed.json"
        assert main(["repair", broken_bundle, "-o", str(out_path)]) == 0
        schema, sigma, fixed = load_bundle(out_path.read_text())
        assert satisfies_all(fixed, sigma)

    def test_repair_in_place_unchanged(self, course_bundle, capsys):
        assert main(["repair", course_bundle]) == 0
        assert "unchanged" in capsys.readouterr().out


class TestAnalyze:
    def test_report(self, course_bundle, capsys):
        assert main(["analyze", course_bundle]) == 0
        out = capsys.readouterr().out
        assert "minimal keys" in out
        assert "cnum" in out
        assert "minimal cover" in out


class TestDiff:
    def test_equivalent_sets(self, course_bundle, tmp_path, capsys):
        # a reformulated bundle: the local grade NFD in simple form
        from repro.nfd import to_simple
        sigma = [to_simple(nfd) for nfd in workloads.course_sigma()]
        other = tmp_path / "reformulated.json"
        other.write_text(dump_bundle(workloads.course_schema(), sigma))
        assert main(["diff", course_bundle, str(other)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_weakening_flagged(self, course_bundle, tmp_path, capsys):
        sigma = workloads.course_sigma()[:-1]  # drop the scheduling rule
        other = tmp_path / "weaker.json"
        other.write_text(dump_bundle(workloads.course_schema(), sigma))
        assert main(["diff", course_bundle, str(other)]) == 1
        assert "dropped guarantees" in capsys.readouterr().out

    def test_schema_mismatch(self, course_bundle, tmp_path, capsys):
        from repro.types import parse_schema
        other = tmp_path / "other_schema.json"
        other.write_text(dump_bundle(parse_schema("R = {<A>}"), []))
        assert main(["diff", course_bundle, str(other)]) == 2


class TestReport:
    def test_prints_markdown(self, course_bundle, capsys):
        assert main(["report", course_bundle, "--title", "My DB"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# My DB")
        assert "## Analysis" in out

    def test_writes_file(self, course_bundle, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        assert main(["report", course_bundle, "-o", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Constraint report")


class TestErrors:
    def test_missing_bundle(self, capsys):
        assert main(["check", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_without_instance(self, tmp_path, capsys):
        path = tmp_path / "no_instance.json"
        path.write_text(dump_bundle(workloads.course_schema(),
                                    workloads.course_sigma()))
        assert main(["check", str(path)]) == 2


class TestCounterNonemptySpec:
    """The counter command must not silently drop a restrictive
    non-empty spec: the Appendix-A construction is Section 3.1 only."""

    def test_flag_rejected(self, course_bundle, capsys):
        assert main(["counter", course_bundle, "Course:[time -> cnum]",
                     "--nonempty", "Course:students"]) == 2
        err = capsys.readouterr().err
        assert "Section 3.1" in err

    def test_bundle_spec_rejected(self, tmp_path, capsys):
        import json

        payload = json.loads(dump_bundle(workloads.course_schema(),
                                         workloads.course_sigma(),
                                         workloads.course_instance()))
        payload["nonempty"] = ["Course:students"]
        path = tmp_path / "gated.json"
        path.write_text(json.dumps(payload))
        assert main(["counter", str(path),
                     "Course:[time -> cnum]"]) == 2
        assert "Section 3.1" in capsys.readouterr().err

    def test_all_nonempty_spec_allowed(self, tmp_path, capsys):
        import json

        payload = json.loads(dump_bundle(workloads.course_schema(),
                                         workloads.course_sigma(),
                                         workloads.course_instance()))
        payload["nonempty"] = "*"
        path = tmp_path / "explicit31.json"
        path.write_text(json.dumps(payload))
        assert main(["counter", str(path),
                     "Course:[time -> cnum]"]) == 0


#: The retired ``--strategy`` names: still parsed, never acted on.
LEGACY_STRATEGIES = ("worklist", "naive", "dense")


class TestStrategyFlag:
    """The retired ``--strategy`` flag: every legacy name parses and
    prints exactly what the default run prints; unknown names are still
    usage errors; the flag is gone from ``--help``."""

    def test_dense_implies_matches_default(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[students:sid, time -> books]"]) == 0
        default = capsys.readouterr().out
        for name in LEGACY_STRATEGIES:
            assert main(["implies", course_bundle,
                         "Course:[students:sid, time -> books]",
                         "--strategy", name]) == 0
            assert capsys.readouterr().out == default, name
            assert main(["implies", course_bundle,
                         "Course:[time -> cnum]",
                         "--strategy", name]) == 1
            capsys.readouterr()

    def test_dense_closure_and_keys_match_default(self, course_bundle,
                                                  capsys):
        assert main(["closure", course_bundle, "Course", "cnum"]) == 0
        closure_out = capsys.readouterr().out
        assert main(["keys", course_bundle]) == 0
        keys_out = capsys.readouterr().out
        for name in LEGACY_STRATEGIES:
            assert main(["closure", course_bundle, "Course", "cnum",
                         "--strategy", name]) == 0
            assert capsys.readouterr().out == closure_out, name
            assert main(["keys", course_bundle,
                         "--strategy", name]) == 0
            assert capsys.readouterr().out == keys_out, name

    def test_dense_stats_name_the_strategy(self, course_bundle, capsys):
        """The stats name no strategy, whatever the flag says."""
        for name in LEGACY_STRATEGIES:
            assert main(["implies", course_bundle,
                         "Course:[students:sid, time -> books]",
                         "--strategy", name, "--stats"]) == 0
            err = capsys.readouterr().err
            assert "engine stats:\n" in err
            assert "strategy" not in err
            assert "mask tests" in err

    def test_unknown_strategy_rejected(self, course_bundle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["implies", course_bundle, "Course:[cnum -> time]",
                  "--strategy", "magic"])
        assert exc.value.code == 2

    def test_flag_is_hidden_from_help(self, capsys):
        for command in ("implies", "closure", "keys", "analyze",
                        "normalize"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "--strategy" not in capsys.readouterr().out, command


class TestStatsFlag:
    def test_implies_prints_stats_to_stderr(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[students:sid, time -> books]",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "engine stats" not in captured.out
        assert "engine stats:" in captured.err
        assert "apply attempts" in captured.err

    def test_exit_codes_unchanged_by_stats(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[time -> cnum]", "--stats"]) == 1
        assert main(["closure", course_bundle, "Course", "cnum",
                     "--stats"]) == 0
        assert main(["counter", course_bundle, "Course:[time -> cnum]",
                     "--stats"]) == 0
        assert "engine stats" in capsys.readouterr().err

    def test_stats_off_by_default(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[cnum -> time]"]) == 0
        assert "engine stats" not in capsys.readouterr().err


class TestClosureBaseValidation:
    def test_unknown_relation_is_usage_error(self, course_bundle, capsys):
        assert main(["closure", course_bundle, "Nope", "cnum"]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_base_is_usage_error(self, course_bundle, capsys):
        assert main(["closure", course_bundle, "", ""]) == 2
        assert "bad closure base" in capsys.readouterr().err

    def test_non_set_base_is_usage_error(self, course_bundle, capsys):
        assert main(["closure", course_bundle, "Course:cnum"]) == 2
        assert "set-valued" in capsys.readouterr().err


class TestCacheStatsFlag:
    def test_implies_prints_session_stats_to_stderr(self, course_bundle,
                                                    capsys):
        assert main(["implies", course_bundle,
                     "Course:[students:sid, time -> books]",
                     "--cache-stats"]) == 0
        captured = capsys.readouterr()
        assert "session stats" not in captured.out
        assert "session stats (fingerprint " in captured.err
        assert "hit rate" in captured.err

    def test_exit_codes_unchanged_by_cache_stats(self, course_bundle,
                                                 capsys):
        assert main(["implies", course_bundle,
                     "Course:[time -> cnum]", "--cache-stats"]) == 1
        assert main(["closure", course_bundle, "Course", "cnum",
                     "--cache-stats"]) == 0
        assert main(["keys", course_bundle, "--cache-stats"]) == 0
        assert main(["analyze", course_bundle, "--cache-stats"]) == 0
        assert "session stats" in capsys.readouterr().err

    def test_diff_prints_both_sessions(self, course_bundle, capsys):
        assert main(["diff", course_bundle, course_bundle,
                     "--cache-stats"]) == 0
        err = capsys.readouterr().err
        assert err.count("session stats (fingerprint ") == 2

    def test_cache_stats_off_by_default(self, course_bundle, capsys):
        assert main(["implies", course_bundle,
                     "Course:[cnum -> time]"]) == 0
        assert main(["keys", course_bundle]) == 0
        assert "session stats" not in capsys.readouterr().err


@pytest.fixture
def broken_warehouse_bundle(tmp_path):
    instance = workloads.warehouse_instance().with_relation("StoreA", [
        {"order_id": 1, "customer": "ada", "lines": []},
        {"order_id": 1, "customer": "grace", "lines": []},
    ]).with_relation("StoreB", [
        {"order_id": 2, "customer": "ada", "lines": []},
        {"order_id": 2, "customer": "grace", "lines": []},
    ])
    path = tmp_path / "warehouse.json"
    path.write_text(dump_bundle(workloads.warehouse_schema(),
                                workloads.warehouse_sigma(), instance))
    return str(path)


class TestJobsFlag:
    def test_keys_parallel_output_is_byte_identical(self, course_bundle,
                                                    capsys):
        assert main(["keys", course_bundle]) == 0
        serial = capsys.readouterr()
        assert main(["keys", course_bundle, "--jobs", "4"]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == serial.out
        assert "cnum" in serial.out

    def test_check_parallel_output_is_byte_identical(
            self, broken_warehouse_bundle, capsys):
        assert main(["check", broken_warehouse_bundle]) == 1
        serial = capsys.readouterr()
        assert main(["check", broken_warehouse_bundle,
                     "--jobs", "2"]) == 1
        parallel = capsys.readouterr()
        assert parallel.out == serial.out
        assert "violation" in serial.out

    def test_check_clean_parallel_exit_code(self, course_bundle, capsys):
        assert main(["check", course_bundle, "--jobs", "2"]) == 0
        assert "satisfies all" in capsys.readouterr().out

    def test_jobs_disable_cache_stats_with_notice(self, course_bundle,
                                                  capsys):
        assert main(["keys", course_bundle, "--jobs", "4",
                     "--cache-stats"]) == 0
        captured = capsys.readouterr()
        assert "session stats" not in captured.err
        assert "cache stats unavailable" in captured.err


@pytest.fixture
def course_jsonl(tmp_path):
    from repro.io.stream import dump_jsonl, iter_set_elements
    path = tmp_path / "course.jsonl"
    dump_jsonl(path, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return str(path)


class TestCheckStreamDegenerate:
    """``check --stream`` edge cases: bad shard counts, empty dumps,
    over-sharding, and an already-expired deadline all end cleanly —
    a typed message on stderr and exit 2, or a normal verdict — never
    a traceback or a silent success."""

    def test_shards_zero_is_an_error(self, course_bundle, course_jsonl,
                                     capsys):
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_shards_negative_is_an_error(self, course_bundle,
                                         course_jsonl, capsys):
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--shards", "-3"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_empty_jsonl_is_a_typed_error(self, course_bundle, tmp_path,
                                          capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["check", course_bundle, "--stream", str(empty),
                     "--shards", "2"]) == 2
        assert "empty stream" in capsys.readouterr().err

    def test_more_shards_than_lines_is_fine(self, course_bundle,
                                            course_jsonl, capsys):
        # empty shards are legal; the verdict matches the serial scan
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--shards", "50"]) == 0
        assert "satisfies all" in capsys.readouterr().out

    def test_zero_deadline_means_already_exhausted(self, course_bundle,
                                                   course_jsonl, capsys):
        # deadline=0 is an expired budget, not "no deadline": the
        # verdict is unknown, so the exit code is 2, not 0
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--deadline", "0"]) == 2
        captured = capsys.readouterr()
        assert "budget exhausted (deadline)" in captured.err
        assert "satisfies all" not in captured.out

    def test_backend_flag_is_rejected(self, course_bundle, course_jsonl,
                                      capsys):
        # the stream engine has one group-table fold and no backend
        # switch: the flag is an argparse usage error
        with pytest.raises(SystemExit) as exc:
            main(["check", course_bundle, "--stream", course_jsonl,
                  "--backend", "dict"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
