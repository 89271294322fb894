"""The workloads: which lane each one loads, at what size, and the
set-up every run (traced or not) starts from."""

from __future__ import annotations

import os
import sys

import lanes
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Each workload loads one stream lane; the other stream lane runs a
#: short bystander pass and the service lane runs at one fixed size, so
#: every end-to-end metric exists on every workload.  See README.md.
WORKLOADS = ("stream-spill", "stream-append")
PRIMARY = {"stream-spill": "spill", "stream-append": "append"}

#: Open-loop offered rate of the daemon's queries (traced run),
#: requests per second: 1/8 to 1/4 of the seed commit's closed-loop
#: capacity (260-460/s on 2 cores, CPython 3.11), so the median is a
#: plain service time and queueing behind ``keys`` and session builds
#: sets the tail.  See README.md.
RATE = 60.0

#: Set-up runs per benchmark run, spread over its rounds; ``setup_s``
#: is their median.
SETUP_REPEATS = 3

#: Turns each lane takes in a run (see run.py).
ROUNDS = 10

#: Processes run by a bystander stream lane, spread over the rounds.
BYSTANDER_RUNS = 8

SIZES = {
    "spill": {"primary": {"elements": 2000, "max_rows": 200},
              "bystander": {"elements": 600, "max_rows": 60}},
    "append": {"primary": {"elements": 2000},
               "bystander": {"elements": 1000}},
}

#: The service lane, the same in every workload.  The closed loop runs
#: for CLOSED_LOOP_S and the CLI script CLI_PASSES times; the open loop,
#: of the traced run only, for OPEN_LOOP_S.
OPEN_LOOP_S = 10.0
CLOSED_LOOP_S = 6.0
CLI_PASSES = 3


def per_round(runs: int, r: int) -> int:
    """Runs that fall in round *r* when *runs* spread evenly over the
    rounds."""
    return runs * (r + 1) // ROUNDS - runs * r // ROUNDS


def roles(workload: str) -> dict[str, str]:
    return {lane: "primary" if PRIMARY[workload] == lane else "bystander"
            for lane in ("spill", "append")}


# -- statistics -----------------------------------------------------------------

#: Samples beyond the percentile each daemon tail metric reports.  A
#: host stall of ~0.2 s delays a dozen queries of the open loop at
#: once, so a query tail with ten samples beyond it (p98.3) jumps by
#: half from run to run; thirty beyond (p95) is set by the daemon's
#: queueing instead.  Checks arrive 8 a second, so one stall delays
#: two of them, and ten beyond (p90) holds.
TAIL_BEYOND = {"query": 30, "check": 10}


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least *beyond* samples beyond
    it, and its value; never below the median (with fewer than
    2 x *beyond* samples, the median is the highest percentile
    reported)."""
    ordered = sorted(values)
    rank = max(len(ordered) - beyond, (len(ordered) + 1) // 2)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    pct, value = tail(values)
    return (f"median of {len(values)} samples; p{pct:.1f} = {value:.6g}")


def prepare_env(work: str) -> dict:
    """The pinned environment, with the package compiled into the run's
    bytecode prefix."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = procs.pinned_env(ROOT, os.path.join(work, "pycache"), tmp)
    compiled = procs.run([sys.executable, "-m", "compileall", "-q",
                          os.path.join(SRC, "repro")], env, ROOT)
    if compiled.code != 0:
        raise RuntimeError(f"compileall failed: {compiled.stderr}")
    return env


def set_up(workload: str, seed: int, work: str, env: dict,
           ledger: lanes.Ledger):
    """Inputs, the cold checkpoint, daemon start-up and warm-up."""
    ctx = lanes.Ctx(ROOT, work, env, ledger)
    role = roles(workload)
    spill = lanes.SpillLane(ctx, seed, **SIZES["spill"][role["spill"]])
    append = lanes.AppendLane(ctx, seed, **SIZES["append"][role["append"]])
    append.build_checkpoint()
    service = lanes.ServiceLane(ctx, seed, RATE, OPEN_LOOP_S,
                                CLOSED_LOOP_S, CLI_PASSES)
    try:
        service.start()
    except BaseException:
        service.stop()
        raise
    return spill, append, service
