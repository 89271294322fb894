"""End-to-end benchmark of the ``repro`` user paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-spill --seed 1 \\
        --seconds 24 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 24  # every workload

``--trace 0`` drives the program from outside (``repro`` processes and
a ``repro serve`` daemon, GC on), checks every output and prints every
end-to-end metric; ``--trace 1`` is the separate traced run that times
calls into each layer's public functions and prints the per-layer
metrics (see ``layers.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lanes  # noqa: E402
from workloads import (BYSTANDER_RUNS, PRIMARY, ROOT, ROUNDS,  # noqa: E402
                       SETUP_REPEATS, SRC, WORKLOADS, describe,
                       per_round, prepare_env, roles, set_up)

# -- the untraced end-to-end run ---------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, work: str,
               report) -> dict:
    env = prepare_env(work)
    ledger = lanes.Ledger()
    setup_s = []

    def timed_set_up():
        rep_dir = os.path.join(work, f"setup{len(setup_s)}")
        os.makedirs(rep_dir)
        start = time.perf_counter()
        made = set_up(workload, seed, rep_dir, env, ledger)
        setup_s.append(time.perf_counter() - start)
        return made

    spill, append, service = timed_set_up()
    try:
        service.warm_bytecode()
        spill.prepare_reference()
        append.prepare_reference()
        service.prepare_reference()
        # the lanes take turns, ROUNDS times, and the other set-ups
        # fall between rounds, so every metric's samples spread over
        # the whole run and machine-speed drift within it falls on all
        # of them alike
        role = roles(workload)
        for r in range(ROUNDS):
            for lane in (spill, append):
                if role[lane.name] == "primary":
                    lane.measure(seconds / ROUNDS, 0)
                else:
                    lane.measure(0.0, per_round(BYSTANDER_RUNS, r))
            service.measure_round(r, ROUNDS)
            for _ in range(per_round(SETUP_REPEATS - 1, r)):
                timed_set_up()[2].stop()
        service.finish()
    finally:
        service.stop()
    lane = {"spill": spill, "append": append}[PRIMARY[workload]]
    samples = {"setup_s": setup_s}
    samples.update(spill.metrics())
    samples.update(append.metrics())
    samples.update(service.metrics())
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "stream_elements_per_s": (statistics.median(
            samples["stream_elements_per_s"]), "1/s"),
        "peak_rss_mb": (max(lane.rss), "MB"),
        "resume_s": (statistics.median(samples["resume_s"]), "s"),
        "store_bytes_per_input_byte": (statistics.median(
            samples["store_bytes_per_input_byte"]), "B/B"),
        "daemon_rps": (statistics.median(samples["daemon_rps"]), "1/s"),
        "cli_script_s": (statistics.median(samples["cli_script_s"]), "s"),
    }
    for name, (value, unit) in metrics.items():
        how = (f"max of {len(lane.rss)} processes"
               if name == "peak_rss_mb" else describe(samples[name]))
        report(f"{name} = {value:.6g} {unit} ({how})")
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    report(f"failed_share = {share:.6g} "
           f"({ledger.failed} of {ledger.attempted} operations)")
    for reason in ledger.reasons:
        report(f"  failure: {reason}")
    report("spans recorded: 0 (untraced run)")
    return {"correct": ledger.failed == 0,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# -- command line ------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    # the benchmark's own imports of the program write bytecode here,
    # never under src/
    sys.pycache_prefix = os.path.join(work, "pycache-bench")
    # temporary files of this process and of every process it starts
    # (the stream engine's spills among them) stay in the work directory
    tempfile.tempdir = os.path.join(work, "tmp")
    os.makedirs(tempfile.tempdir)
    os.environ["TMPDIR"] = tempfile.tempdir
    if SRC not in sys.path:
        sys.path.insert(1, SRC)

    def report(line: str) -> None:
        print(f"[{workload}] {line}", flush=True)

    try:
        if trace:
            import layers
            return layers.traced(workload, seed, work, report)
        return end_to_end(workload, seed, seconds, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its daemon and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.all else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, args.trace)
               for w in workloads]
    if args.all:
        merged = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{w}/{k}": v for w, r in
                              zip(workloads, results)
                              for k, v in r["metrics"].items()}}
        print(json.dumps(merged))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
