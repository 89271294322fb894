"""The streaming check path runs without numpy.

``repro check --stream`` (spilling or ``--incremental``) folds every
root-anchored NFD into plain dict aggregate tables, so numpy must never
be imported on that path.  Each check here runs in a fresh interpreter:
once with numpy blocked (``sys.modules['numpy'] = None`` before
:func:`repro.cli.main`, so any ``import numpy`` raises) and once
unblocked, and the two runs must agree on exit code and witnesses.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.generators import workloads
from repro.io import dump_bundle
from repro.io.stream import dump_jsonl, iter_set_elements
from repro.values import Atom, to_python

REPO_ROOT = Path(__file__).resolve().parents[1]

_BLOCKED = ("import sys; sys.modules['numpy'] = None; "
            "from repro.cli import main; sys.exit(main(sys.argv[1:]))")
_UNBLOCKED = ("import sys; "
              "from repro.cli import main; sys.exit(main(sys.argv[1:]))")


def _env():
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True,
        text=True, env=_env(), cwd=str(REPO_ROOT), timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def _append_clash(path, element):
    with open(path, "a") as handle:
        handle.write(json.dumps(
            to_python(element.replace("time", Atom(99)))) + "\n")


@pytest.fixture
def stream_case(tmp_path):
    """A bundle plus a JSONL dump with many more keys than ``--max-rows``
    admits and one injected cross-element clash."""
    bundle = tmp_path / "course.json"
    bundle.write_text(dump_bundle(workloads.course_schema(),
                                  workloads.course_sigma(),
                                  workloads.course_instance()))
    instance = workloads.scaled_course_instance(
        random.Random(13), courses=40, students_per_course=2,
        books_per_course=1)
    relation = instance.relation("Course")
    jsonl = tmp_path / "course.jsonl"
    dump_jsonl(jsonl, iter_set_elements(relation))
    _append_clash(jsonl, next(iter_set_elements(relation)))
    return str(bundle), str(jsonl)


def test_spilling_check_matches_without_numpy(stream_case):
    bundle, jsonl = stream_case
    args = ("check", bundle, "--stream", jsonl, "--max-rows", "4",
            "--stats")
    blocked = _run(_BLOCKED, *args)
    unblocked = _run(_UNBLOCKED, *args)
    assert blocked.returncode == unblocked.returncode == 1
    assert blocked.stdout == unblocked.stdout
    assert "violation(s)" in blocked.stdout
    # the budget really forced the out-of-core path
    assert "spills: 0" not in blocked.stderr


def test_incremental_resume_matches_without_numpy(stream_case, tmp_path):
    bundle, jsonl = stream_case
    outputs = {}
    for name, script in (("blocked", _BLOCKED),
                         ("unblocked", _UNBLOCKED)):
        source = tmp_path / f"{name}.jsonl"
        shutil.copy(jsonl, source)
        cache = tmp_path / f"cache-{name}"
        args = ("check", bundle, "--stream", str(source), "--incremental",
                "--cache-dir", str(cache))
        cold = _run(script, *args)
        assert "incremental: cold" in cold.stderr, cold.stderr
        _append_clash(source, next(iter_set_elements(
            workloads.course_instance().relation("Course"))))
        resumed = _run(script, *args)
        assert "incremental: resumed" in resumed.stderr, resumed.stderr
        outputs[name] = (cold.returncode, cold.stdout,
                         resumed.returncode, resumed.stdout)
    assert outputs["blocked"] == outputs["unblocked"]
    assert outputs["blocked"][2] == 1


def test_in_process_stream_validate_never_imports_numpy():
    script = """
import random, sys
from repro.generators import workloads
from repro.io.stream import iter_set_elements
from repro.nfd.stream_validate import ResourceBudget, stream_validate

instance = workloads.scaled_course_instance(
    random.Random(5), courses=30, students_per_course=2,
    books_per_course=1)
result = stream_validate(
    workloads.course_schema(), workloads.course_sigma(),
    {name: iter_set_elements(value)
     for name, value in instance.relations()},
    budget=ResourceBudget(max_resident_rows=3))
assert result.stats.spills > 0, result.stats.as_dict()
print("numpy" in sys.modules)
"""
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
