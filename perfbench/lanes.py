"""The three user paths, driven from outside through ``repro`` processes.

Each lane has a set-up step (inputs, cold state, daemon start), a
measuring step and a check of every output against
:mod:`reference`.  A workload runs its stream lane under load, the
other stream lane as a short *bystander* pass and the service lane at
its one size, so every end-to-end metric exists on every workload
(see README.md).
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import inputs
import loadgen
import procs
import reference

#: Latency limits of the daemon's tail percentiles, per request class:
#: about twice the highest tail of the seed commit in the ten-seed runs
#: of README.md.  A failed or refused request counts as missing them.
LATENCY_LIMIT_MS = {"query": 30.0, "check": 250.0}


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok


@dataclass
class Ctx:
    root: str
    work: str
    env: dict
    ledger: Ledger


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as handle:
        handle.write(data)
    return path


class _ProcessLane:
    """A lane whose unit of work is one ``repro`` process (``once``)."""

    def measure(self, seconds: float, count: int) -> None:
        """At least *count* runs, and more until the lane's measuring
        time reaches its running budget, which grows by *seconds* per
        call (an overshoot in one round shortens the next)."""
        self.budget += seconds
        done = 0
        while done < count or self.busy < self.budget:
            start = time.perf_counter()
            self.once()
            self.busy += time.perf_counter() - start
            done += 1


# -- stream-spill -------------------------------------------------------------

class SpillLane(_ProcessLane):
    """``repro check BUNDLE --stream FILE --max-rows R``."""

    name = "spill"

    def __init__(self, ctx: Ctx, seed: int, elements: int, max_rows: int):
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, "spill")
        os.makedirs(self.dir)
        self.inputs = inputs.spill_inputs(seed, elements, max_rows)
        self.bundle = _write(os.path.join(self.dir, "bundle.json"),
                             self.inputs.bundle)
        self.path = _write(os.path.join(self.dir, "courses.jsonl"),
                           self.inputs.jsonl)
        self.want = None
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.budget = self.busy = 0.0

    def prepare_reference(self) -> None:
        self.want = reference.StreamReference(
            self.inputs.bundle, self.inputs.jsonl).blocks

    def once(self) -> None:
        out = procs.repro(["check", self.bundle, "--stream", self.path,
                           "--max-rows", str(self.inputs.max_rows)],
                          self.ctx.env, self.ctx.root)
        got = reference.violation_blocks(out.stdout)
        ok = (out.code == (1 if self.want else 0)
              and reference.same_witnesses_unordered(got, self.want))
        if self.ctx.ledger.record(ok, f"spill: exit {out.code}, "
                                      f"{len(got)} witnesses"):
            self.walls.append(out.wall_s)
        self.rss.append(out.peak_rss_mb)

    def metrics(self) -> dict:
        return {"stream_elements_per_s":
                [self.inputs.elements / w for w in self.walls]}


# -- stream-append ------------------------------------------------------------

class AppendLane(_ProcessLane):
    """``repro check BUNDLE --stream FILE --incremental --cache-dir D``
    after appending ~1% to a checkpointed file."""

    name = "append"

    def __init__(self, ctx: Ctx, seed: int, elements: int):
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, "append")
        os.makedirs(self.dir)
        self.inputs = inputs.append_inputs(seed, elements)
        self.bundle = _write(os.path.join(self.dir, "bundle.json"),
                             self.inputs.bundle)
        self.path = _write(os.path.join(self.dir, "courses.jsonl"),
                           self.inputs.base)
        self.cache = os.path.join(self.dir, "cache")
        self.pristine = os.path.join(self.dir, "cache.pristine")
        self.want = None
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.budget = self.busy = 0.0
        self.store_ratio: list[float] = []

    def args(self) -> list[str]:
        return ["check", self.bundle, "--stream", self.path,
                "--incremental", "--cache-dir", self.cache]

    def build_checkpoint(self) -> None:
        """The cold checkpoint of the base file (part of set-up)."""
        out = procs.repro(self.args(), self.ctx.env, self.ctx.root)
        if out.code not in (0, 1) or "cold" not in out.stderr:
            raise RuntimeError(f"cold checkpoint failed: {out.stderr}")
        shutil.copytree(self.cache, self.pristine)

    def prepare_reference(self) -> None:
        path = _write(os.path.join(self.dir, "appended.jsonl"),
                      self.inputs.base + self.inputs.delta)
        self.want = reference.ColdStreamReference(self.inputs.bundle,
                                                  path).blocks

    def restore(self) -> None:
        _write(self.path, self.inputs.base)
        shutil.rmtree(self.cache)
        shutil.copytree(self.pristine, self.cache)
        with open(self.path, "ab") as handle:
            handle.write(self.inputs.delta)

    def store_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.cache, name))
                   for name in os.listdir(self.cache)
                   if name.startswith("repro-cache.sqlite"))

    def once(self) -> None:
        self.restore()
        out = procs.repro(self.args(), self.ctx.env, self.ctx.root)
        got = reference.violation_blocks(out.stdout)
        ok = (out.code == (1 if self.want else 0) and got == self.want
              and "incremental: resumed" in out.stderr)
        if self.ctx.ledger.record(ok, f"append: exit {out.code}, "
                                      f"{out.stderr.strip()[:120]}"):
            self.walls.append(out.wall_s)
            self.store_ratio.append(self.store_bytes() / (
                len(self.inputs.base) + len(self.inputs.delta)))
        self.rss.append(out.peak_rss_mb)

    def metrics(self) -> dict:
        return {"resume_s": self.walls,
                "store_bytes_per_input_byte": self.store_ratio}


# -- the service lane -----------------------------------------------------------

class ServiceLane:
    """A ``repro serve`` daemon under a closed loop, and a fixed script
    of fresh CLI processes.  The open loop and the check schedule, whose
    latencies the host's scheduling sets more than the program does,
    run in the traced run only (see README.md)."""

    def __init__(self, ctx: Ctx, seed: int, rate: float,
                 open_seconds: float, closed_seconds: float,
                 cli_passes: int):
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, "service")
        os.makedirs(self.dir)
        self.closed_seconds = closed_seconds
        self.inputs = inputs.service_inputs(
            seed, rate, open_seconds, closed_count=400)
        self.bundles = {
            name: _write(os.path.join(self.dir, f"{name}.json"), data)
            for name, data in self.inputs.cli_bundles.items()}
        self.cli_cache = os.path.join(self.dir, "cli-cache")
        self.daemon: procs.Daemon | None = None
        self.ref = None
        # per round: the closed-loop samples and the measured interval
        self.closed_rounds: list[tuple[list, float]] = []
        # per CLI pass: call index -> process wall (None if it failed)
        self.cli_passes: list[dict[int, float | None]] = [
            {} for _ in range(cli_passes)]
        self.cli_walls: list[float] = []

    # set-up ----------------------------------------------------------------

    def start(self) -> None:
        """Daemon start-up plus warm-up, and the warm CLI cache."""
        self.daemon = procs.Daemon(self.ctx.env, self.ctx.root)
        replies = loadgen.one_by_one(
            self.daemon.host, self.daemon.port,
            [request.frame for request in self.inputs.warmup])
        if not all(reply and reply.get("ok") for reply, _ in replies):
            raise RuntimeError("daemon warm-up request failed")
        for call in self.inputs.cli_script:
            if call.warm and self._cli(call) is None:
                raise RuntimeError("warming the CLI cache failed")

    def warm_bytecode(self) -> None:
        """Run the ``--jobs 2`` calls of the CLI script once, untimed, so
        the standard-library modules that only process fan-out imports
        are in the bytecode prefix before any timed process starts."""
        for call in self.inputs.cli_script:
            if "--jobs" in call.args and self._cli(call) is None:
                raise RuntimeError(f"CLI call {call.kind} failed")

    def prepare_reference(self) -> None:
        self.ref = reference.ServiceReference(
            inputs.ENROL_SCHEMA, self.inputs.population,
            self.inputs.instances)
        self.sweep_want = {}
        for call in self.inputs.cli_script:
            if call.kind == "normalize":
                seed = int(call.args[-1])
                self.sweep_want[seed] = reference.sweep_reference(
                    inputs.SWEEP_COUNT, seed)

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # daemon ----------------------------------------------------------------

    def measure_round(self, r: int, rounds: int) -> None:
        """Round *r* of *rounds*: a closed-loop slice and the r-th share
        of the calls of every CLI pass."""
        host, port = self.daemon.host, self.daemon.port
        cycle = self.inputs.closed_loop
        turn = r * len(cycle) // rounds
        self.closed_rounds.append(loadgen.closed_loop(
            host, port, cycle[turn:] + cycle[:turn],
            self.closed_seconds / rounds))
        script = self.inputs.cli_script
        for walls in self.cli_passes:
            for i in range(r, len(script), rounds):
                walls[i] = self._cli(script[i])

    def finish(self) -> None:
        """Stop the daemon and check every reply."""
        self.stop()
        self.check_replies([s for samples, _ in self.closed_rounds
                            for s in samples])
        self.cli_walls = [sum(walls.values()) for walls in self.cli_passes
                          if all(w is not None for w in walls.values())]

    def _answered(self, sample) -> bool:
        return self.ref.reply_ok(sample.request, sample.response)

    def check_replies(self, samples) -> None:
        for sample in samples:
            request = sample.request
            self.ctx.ledger.record(
                self._answered(sample),
                f"daemon {request.kind} #{request.rid}: "
                f"{str(sample.response)[:120]}")

    def latencies(self, samples) -> list[float]:
        """Open-loop latencies from the due time; a failed or refused
        request counts as infinitely late."""
        return [sample.latency_ms if self._answered(sample)
                else float("inf") for sample in samples]

    def metrics(self) -> dict:
        return {
            "daemon_rps": [sum(1 for s in samples if self._answered(s))
                           / elapsed
                           for samples, elapsed in self.closed_rounds],
            "cli_script_s": self.cli_walls,
        }

    # CLI script --------------------------------------------------------------

    def _cli(self, call: inputs.CliCall) -> float | None:
        """Run one call of the script; its wall time, or None when its
        output is wrong."""
        args = [call.kind]
        if call.bundle is not None:
            args.append(self.bundles[call.bundle])
        args += call.args
        if call.warm:
            args += ["--cache-dir", self.cli_cache]
        out = procs.repro(args, self.ctx.env, self.ctx.root)
        if self.ref is None:
            ok = out.code in (0, 1)
        else:
            ok = self.ctx.ledger.record(
                self._cli_ok(call, out),
                f"cli {' '.join(call.args)}: exit {out.code} "
                f"{out.stderr.strip()[:120]}")
        return out.wall_s if ok else None

    def _cli_ok(self, call: inputs.CliCall, out: procs.Outcome) -> bool:
        lines = out.stdout.splitlines()
        k = int(call.bundle[len("sigma"):]) if call.bundle else None
        if call.kind == "implies":
            want = self.ref.answer("implies", k, {"nfd": call.args[0]})
            return (out.code == (0 if want else 1) and bool(lines)
                    and lines[0].startswith("implied:") is want)
        if call.kind == "closure":
            want = self.ref.answer("closure", k, {
                "queries": [[call.args[0], call.args[1:]]]})[0]
            return out.code == 0 and [l.strip() for l in lines[1:]] == want
        if call.kind == "keys":
            want = self.ref.answer("keys", k, {"relation": "Enrol"})
            got = sorted(sorted(line.split("{", 1)[1].rstrip("}")
                                .split(", ")) for line in lines)
            return out.code == (0 if want else 1) and got == want
        stdout, code = self.sweep_want[int(call.args[-1])]
        return out.code == code and out.stdout == stdout

