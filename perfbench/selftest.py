"""The benchmark's own self-test.

Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Inputs are a function of the seed alone: the concatenated bytes of
   every generated input (JSONL files, bundles, the Σ population and
   request frames, the open-loop and check schedules, the CLI script)
   are digested in two fresh interpreters with different hash seeds, at
   both lane sizes, and must agree; another seed must give other bytes.
2. Every workload passes its output checks on a seed no tuning run
   used: each runs briefly, untraced, and must report ``correct`` with
   no failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: A seed kept out of every tuning run.
UNUSED_SEED = 918273

_DIGEST = """
import hashlib, sys
sys.path.insert(0, {here!r})
import inputs, workloads
roles = {{
    "spill": workloads.SIZES["spill"][{role!r}],
    "append": workloads.SIZES["append"][{role!r}],
    "service": {{"rate": workloads.RATE, "closed_count": 400,
                 "open_seconds": workloads.OPEN_LOOP_S}},
}}
print(hashlib.sha256(inputs.fingerprint({seed}, roles)).hexdigest())
"""


def digest(seed: int, role: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = _DIGEST.format(here=HERE, role=role, seed=seed)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def check_inputs() -> list[str]:
    problems = []
    for role in ("primary", "bystander"):
        first = digest(UNUSED_SEED, role, "1")
        if digest(UNUSED_SEED, role, "2") != first:
            problems.append(f"{role} inputs differ between two runs "
                            f"of seed {UNUSED_SEED}")
        if digest(UNUSED_SEED + 1, role, "1") == first:
            problems.append(f"{role} inputs ignore the seed")
    return problems


def check_workloads() -> list[str]:
    import workloads
    problems = []
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(UNUSED_SEED), "--seconds", "2",
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"{workload}: exit {out.returncode}, no "
                            f"result: {out.stderr.strip()[-300:]}")
            continue
        if out.returncode != 0 or not result["correct"] \
                or result["failed"]:
            problems.append(f"{workload}: {result['failed']} of "
                            f"{result['attempted']} operations failed")
    return problems


def main() -> int:
    problems = check_inputs() + check_workloads()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
