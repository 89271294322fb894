"""CLI tests for the persistent cache: warm starts, the ``cache``
subcommand, ``--incremental`` streaming, and corruption fallback.

The acceptance gates live here: a warm second ``check`` of the same Σ
performs zero plan compilations, a warm ``implies`` performs zero
saturation rule applications — both asserted through the obs counters
(``--metrics-json``) — and a corrupted database changes neither stdout
nor the exit code.
"""

import json
import os

import pytest

from repro.cli import main
from repro.generators import workloads
from repro.io import dump_bundle
from repro.store import DB_FILENAME


@pytest.fixture
def course_bundle(tmp_path):
    path = tmp_path / "course.json"
    path.write_text(dump_bundle(workloads.course_schema(),
                                workloads.course_sigma(),
                                workloads.course_instance()))
    return str(path)


@pytest.fixture
def course_jsonl(tmp_path):
    from repro.io.stream import dump_jsonl, iter_set_elements
    path = tmp_path / "course.jsonl"
    dump_jsonl(path, iter_set_elements(
        workloads.course_instance().relation("Course")))
    return str(path)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _metrics(path):
    with open(path) as handle:
        return json.load(handle)["sections"]


def _append_clash(jsonl):
    from repro.io.stream import iter_set_elements
    from repro.values import Atom, to_python
    first = next(iter_set_elements(
        workloads.course_instance().relation("Course")))
    with open(jsonl, "a") as handle:
        handle.write(json.dumps(
            to_python(first.replace("time", Atom(99)))) + "\n")


class TestWarmStart:
    def test_second_check_compiles_no_plans(self, course_bundle,
                                            cache_dir, tmp_path,
                                            capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["check", course_bundle, "--cache-dir", cache_dir,
                     "--metrics-json", metrics]) == 0
        cold_out = capsys.readouterr().out
        cold = _metrics(metrics)
        assert cold["validator"]["plan_compilations"] == 1
        assert cold["cache"]["plan_misses"] == 1
        assert main(["check", course_bundle, "--cache-dir", cache_dir,
                     "--metrics-json", metrics]) == 0
        warm_out = capsys.readouterr().out
        warm = _metrics(metrics)
        # the acceptance gate: a warm check compiles nothing
        assert warm["validator"]["plan_compilations"] == 0
        assert warm["cache"]["plan_hits"] == 1
        assert warm_out == cold_out

    def test_second_implies_applies_no_rules(self, course_bundle,
                                             cache_dir, tmp_path,
                                             capsys):
        metrics = str(tmp_path / "m.json")
        query = ["implies", course_bundle, "Course:[cnum -> time]",
                 "--cache-dir", cache_dir, "--metrics-json", metrics]
        assert main(query) == 0
        cold_out = capsys.readouterr().out
        cold = _metrics(metrics)
        assert cold["closure"]["attempts"] > 0
        assert cold["session"]["store_misses"] == 1
        assert main(query) == 0
        warm_out = capsys.readouterr().out
        warm = _metrics(metrics)
        # the acceptance gate: zero saturation rule applications
        assert warm["closure"]["attempts"] == 0
        assert warm["closure"]["saturations"] == 0
        assert warm["session"]["store_hits"] == 1
        assert warm_out == cold_out

    def test_closure_and_keys_share_the_memo(self, course_bundle,
                                             cache_dir, tmp_path,
                                             capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["closure", course_bundle, "Course", "cnum",
                     "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(["closure", course_bundle, "Course", "cnum",
                     "--cache-dir", cache_dir,
                     "--metrics-json", metrics]) == 0
        assert capsys.readouterr().out == first
        warm = _metrics(metrics)
        assert warm["closure"]["attempts"] == 0
        # keys issues many closure queries; a fully warmed memo
        # answers them all without saturating
        assert main(["keys", course_bundle, "--cache-dir",
                     cache_dir]) == 0
        keys_out = capsys.readouterr().out
        assert main(["keys", course_bundle, "--cache-dir", cache_dir,
                     "--metrics-json", metrics]) == 0
        assert capsys.readouterr().out == keys_out
        assert _metrics(metrics)["closure"]["attempts"] == 0

    def test_cache_section_prints_under_stats(self, course_bundle,
                                              cache_dir, capsys):
        assert main(["check", course_bundle, "--cache-dir", cache_dir,
                     "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cache stats (persistent store)" in err

    def test_env_var_configures_the_cache(self, course_bundle,
                                          cache_dir, monkeypatch,
                                          capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["check", course_bundle]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(cache_dir, DB_FILENAME))


class TestCacheSubcommand:
    def test_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_stats_clear_vacuum_cycle(self, course_bundle, cache_dir,
                                      capsys):
        assert main(["check", course_bundle,
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "plans: 1" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cache cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "plans: 0" in capsys.readouterr().out
        assert main(["cache", "vacuum", "--cache-dir", cache_dir]) == 0
        assert "cache vacuumed" in capsys.readouterr().out

    def test_env_var_names_the_directory(self, cache_dir, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["cache", "stats"]) == 0
        assert "available: True" in capsys.readouterr().out

    def test_stats_report_dense_tables(self, course_bundle, cache_dir,
                                       capsys):
        # a query persists the kernel's interned tables ...
        assert main(["closure", course_bundle, "Course", "cnum",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # ... and `cache stats` reports their rows and bytes
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        stats = dict(line.split(": ", 1)
                     for line in out.splitlines() if ": " in line)
        assert int(stats["dense_tables"]) >= 1
        assert int(stats["dense_bytes"]) > 0


class TestIncrementalCLI:
    def test_requires_a_cache_dir(self, course_bundle, course_jsonl,
                                  monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental"]) == 2
        assert "--incremental requires a cache directory" in \
            capsys.readouterr().err

    def test_rejects_shards(self, course_bundle, course_jsonl,
                            cache_dir, capsys):
        assert main(["check", course_bundle, "--stream", course_jsonl,
                     "--incremental", "--shards", "2",
                     "--cache-dir", cache_dir]) == 2
        assert "single-shard" in capsys.readouterr().err

    def test_resume_matches_cold_stdout_and_exit(self, course_bundle,
                                                 course_jsonl,
                                                 cache_dir, capsys):
        args = ["check", course_bundle, "--stream", course_jsonl,
                "--incremental", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "incremental: cold" in first.err
        _append_clash(course_jsonl)
        code = main(args)
        resumed = capsys.readouterr()
        assert "incremental: resumed" in resumed.err
        assert "1 element(s) folded" in resumed.err
        # reference: a cold streamed check without any cache
        cold_code = main(["check", course_bundle, "--stream",
                          course_jsonl])
        cold = capsys.readouterr()
        assert code == cold_code == 1
        assert resumed.out == cold.out

    def test_streamed_check_warms_plan_cache(self, course_bundle,
                                             course_jsonl, cache_dir,
                                             tmp_path, capsys):
        metrics = str(tmp_path / "m.json")
        args = ["check", course_bundle, "--stream", course_jsonl,
                "--cache-dir", cache_dir, "--metrics-json", metrics]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        capsys.readouterr()
        assert _metrics(metrics)["cache"]["plan_hits"] == 1

    def test_sharded_stream_with_cache_matches_without(
            self, course_bundle, course_jsonl, cache_dir, capsys):
        _append_clash(course_jsonl)
        base = ["check", course_bundle, "--stream", course_jsonl,
                "--shards", "2", "--jobs", "2"]
        assert main(base) == 1
        plain = capsys.readouterr().out
        assert main(base + ["--cache-dir", cache_dir]) == 1
        cold_cached = capsys.readouterr().out
        assert main(base + ["--cache-dir", cache_dir]) == 1
        warm_cached = capsys.readouterr().out
        assert plain == cold_cached == warm_cached


class TestCorruptionFallback:
    def test_corrupt_db_keeps_stdout_and_exit_identical(
            self, course_bundle, cache_dir, capsys, recwarn):
        assert main(["check", course_bundle]) == 0
        reference = capsys.readouterr().out
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"\x00garbage" * 512)
        assert main(["check", course_bundle,
                     "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == reference
        assert any("continuing without the persistent cache"
                   in str(w.message) for w in recwarn.list)

    def test_corrupt_db_keeps_implies_identical(self, course_bundle,
                                                cache_dir, capsys,
                                                recwarn):
        query = ["implies", course_bundle, "Course:[cnum -> time]"]
        assert main(query) == 0
        reference = capsys.readouterr().out
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, DB_FILENAME), "wb") as fh:
            fh.write(b"not sqlite\n" * 64)
        assert main(query + ["--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == reference
