"""The traced run: per-layer numbers from spans around layer calls.

The run starts from the same set-up as the untraced run.  It then
replays each lane in this process, calling each layer's public
functions with a span around every call (:mod:`spans`), and reads the
layers' own counters where they keep them.  The daemon's pool counters
come from its ``stats`` request, and interpreter start plus import from
fresh processes.  The daemon's open-loop latencies come from this run
too: one pass of the query open loop and one of the check schedule.
Nothing under ``src/`` is changed or patched: the only wrapped methods
belong to a store object the benchmark opened itself.

``trace.unattributed_share`` compares the workload's end-to-end unit of
work, measured untraced in the same run, with the sum of the layer self
times of its in-process replay.  ``trace.overhead_share`` compares the
replay with the recorder on and off.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time

import inputs
import lanes
import loadgen
import procs
import reference
import spans
from workloads import (PRIMARY, RATE, ROOT, SRC, TAIL_BEYOND, prepare_env,
                       roles, set_up, tail)

#: Fresh-process import probes per bytecode policy.
IMPORT_PROBES = 5

#: Untraced end-to-end samples of the primary unit of work.
E2E_PROBES = 3

#: Recorder-on / recorder-off replay pairs behind trace.overhead_share.
OVERHEAD_PAIRS = 4


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# -- interpreter start and import ------------------------------------------------

def import_layer(env: dict, work: str) -> dict:
    """``python3 -c 'import repro.cli'`` with the warm bytecode prefix,
    and with the package's own bytecode removed from a copy of it and
    writing disabled (the standard library keeps its caches)."""
    probe = [sys.executable, "-c", "import repro.cli"]
    warm = [procs.run(probe, env, ROOT).wall_s
            for _ in range(IMPORT_PROBES)]
    prefix = env["PYTHONPYCACHEPREFIX"]
    cold_prefix = os.path.join(work, "pycache-nobytecode")
    shutil.copytree(prefix, cold_prefix)
    shutil.rmtree(cold_prefix + os.path.join(SRC, "repro"),
                  ignore_errors=True)
    cold_env = procs.pinned_env(ROOT, cold_prefix, env["TMPDIR"],
                                bytecode=False)
    cold = [procs.run(probe, cold_env, ROOT).wall_s
            for _ in range(IMPORT_PROBES)]
    return {"cli.import_s": (statistics.median(warm), "s"),
            "cli.import_nobytecode_s": (statistics.median(cold), "s")}


# -- stream-spill: decode, compile, fold, spill/merge, GC ---------------------------

def spill_path(rec: spans.Recorder, lane: lanes.SpillLane):
    """The check as the CLI runs it, one layer call at a time."""
    from repro.io import iter_jsonl_elements
    from repro.io.json_io import load_bundle
    from repro.nfd import ResourceBudget, StreamValidator

    schema, sigma, _ = load_bundle(lane.inputs.bundle.decode())
    budget = ResourceBudget(max_resident_rows=lane.inputs.max_rows)
    with rec.span("path.spill"):
        with rec.span("io.iter_jsonl_elements"):
            elements = list(iter_jsonl_elements(lane.path, schema,
                                                 "Course"))
        with rec.span("nfd.StreamValidator"):
            validator = StreamValidator(schema, sigma, budget=budget)
        try:
            with rec.span("nfd.StreamValidator.consume"):
                validator.consume("Course", elements)
            with rec.span("nfd.StreamValidator.finalize"):
                result = validator.finalize()
        finally:
            with rec.span("nfd.StreamValidator.cleanup"):
                validator.cleanup()
        with rec.span("nfd.Violation.describe"):
            blocks = [v.describe() for v in result.violations]
    return validator, result, blocks


def spill_layers(rec: spans.Recorder, lane: lanes.SpillLane,
                 ledger: lanes.Ledger) -> dict:
    from repro.io import iter_jsonl_elements
    from repro.io.json_io import load_bundle
    from repro.nfd import ResourceBudget, StreamValidator, stream_validate
    from repro.values.build import from_python

    validator, result, blocks = spill_path(rec, lane)
    ledger.record(reference.same_witnesses_unordered(blocks, lane.want),
                  "traced spill witnesses")
    schema, sigma, _ = load_bundle(lane.inputs.bundle.decode())
    stats = result.stats

    # the same fold with no row budget: nothing spills
    elements = list(iter_jsonl_elements(lane.path, schema, "Course"))
    with rec.span("probe.fold"):
        with rec.span("nfd.StreamValidator[unbudgeted]"):
            unbudgeted = StreamValidator(schema, sigma)
        try:
            with rec.span("nfd.StreamValidator.consume[unbudgeted]"):
                unbudgeted.consume("Course", elements)
            with rec.span("nfd.StreamValidator.finalize[unbudgeted]"):
                unbudgeted.finalize()
        finally:
            unbudgeted.cleanup()
    fold_s = (rec.total("nfd.StreamValidator.consume[unbudgeted]")
              + rec.total("nfd.StreamValidator.finalize[unbudgeted]"))
    budgeted_s = sum(rec.total(f"nfd.StreamValidator.{step}")
                     for step in ("consume", "finalize", "cleanup"))

    # decode split into its two layers
    element_type = schema.element_type("Course")
    with open(lane.path, "rb") as handle:
        lines = handle.read().splitlines()
    with rec.span("probe.decode_split"):
        with rec.span("json.loads"):
            data = [json.loads(line) for line in lines]
        with rec.span("values.from_python"):
            for item in data:
                from_python(item, element_type)

    # GC pauses around the fold as users run it: decode and fold
    # interleaved through stream_validate, under the row budget
    pauses: list[float] = []
    started: list[float] = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            pauses.append(time.perf_counter() - started.pop())

    gc.callbacks.append(on_gc)
    try:
        with rec.span("nfd.stream_validate[jsonl,budget]"):
            stream_validate(schema, sigma, {
                "Course": iter_jsonl_elements(lane.path, schema, "Course")},
                budget=ResourceBudget(
                    max_resident_rows=lane.inputs.max_rows))
    finally:
        gc.callbacks.remove(on_gc)

    elements_seen = stats.elements_seen
    return {
        "io.decode_s": (rec.total("io.iter_jsonl_elements"), "s"),
        "io.json_s": (rec.total("json.loads"), "s"),
        "values.build_s": (rec.total("values.from_python"), "s"),
        "gc.pause_s": (sum(pauses), "s"),
        "gc.collections": (len(pauses), "count"),
        "nfd.fold_s": (fold_s, "s"),
        "nfd.elements": (elements_seen, "count"),
        "nfd.groups": (stats.groups_merged, "count"),
        "nfd.spill_merge_s": (budgeted_s - fold_s, "s"),
        "nfd.spills": (stats.spills, "count"),
        "nfd.rows_spilled": (stats.rows_spilled, "count"),
        "nfd.bytes_spilled": (stats.bytes_spilled, "B"),
        "nfd.runs_written": (stats.runs_written, "count"),
        "nfd.peak_resident_rows": (stats.peak_resident_rows, "count"),
        "nfd.rows_spilled_per_element": (
            stats.rows_spilled / elements_seen, "rows/element"),
    }, {"nfd.rows_spilled_per_element":
        f"{stats.rows_spilled}/{elements_seen}"}, \
        [validator.engine.stats.plan_compilations]


# -- stream-append: the checkpoint store --------------------------------------------

def append_path(rec: spans.Recorder, lane: lanes.AppendLane, probe: dict):
    """The resume as the CLI runs it, with the store's checkpoint reads
    and writes recorded as child spans."""
    from repro.io.json_io import load_bundle
    from repro.store import (CacheStore, default_spill_root,
                             incremental_stream_validate)

    schema, sigma, _ = load_bundle(lane.inputs.bundle.decode())
    wal = os.path.join(lane.cache, "repro-cache.sqlite-wal")

    def rows_read(groups):
        probe["group_rows"] = sum(len(rows) for _, rows in groups)

    def wal_written(_):
        probe["wal_bytes"] = os.path.getsize(wal) \
            if os.path.exists(wal) else 0

    with rec.span("path.append"):
        with rec.span("store.CacheStore"):
            store = CacheStore(lane.cache)
        if rec.enabled:
            rec.wrap(store, "get_stream_source",
                     "store.CacheStore.get_stream_source")
            rec.wrap(store, "iter_stream_groups",
                     "store.CacheStore.iter_stream_groups",
                     materialize=True, after=rows_read)
            rec.wrap(store, "put_stream_source",
                     "store.CacheStore.put_stream_source",
                     after=wal_written)
        try:
            with rec.span("store.incremental_stream_validate"):
                result, info = incremental_stream_validate(
                    schema, sigma, "Course", lane.path, store=store,
                    spill_root=default_spill_root(lane.cache))
            with rec.span("nfd.Violation.describe"):
                blocks = [v.describe() for v in result.violations]
        finally:
            with rec.span("store.CacheStore.close"):
                store.close()
    return blocks, info


def append_layers(rec: spans.Recorder, lane: lanes.AppendLane,
                  ledger: lanes.Ledger) -> tuple[dict, dict]:
    lane.restore()
    probe: dict = {}
    blocks, info = append_path(rec, lane, probe)
    ledger.record(blocks == lane.want and info["mode"] == "resumed",
                  f"traced resume: {info['mode']}")
    delta = len(lane.inputs.delta)
    read = (rec.total("store.CacheStore.get_stream_source")
            + rec.total("store.CacheStore.iter_stream_groups"))
    return {
        "store.open_ms": (rec.total("store.CacheStore") * 1e3, "ms"),
        "store.checkpoint_read_s": (read, "s"),
        "store.checkpoint_write_s": (
            rec.total("store.CacheStore.put_stream_source"), "s"),
        "store.db_bytes": (lane.store_bytes(), "B"),
        "store.group_rows": (probe.get("group_rows", 0), "count"),
        "store.bytes_written_per_appended_byte": (
            probe.get("wal_bytes", 0) / delta, "B/B"),
    }, {"store.bytes_written_per_appended_byte":
        f"{probe.get('wal_bytes', 0)}/{delta}"}


# -- service: protocol, inference, keys, check, pool, design, parallel ---------------

def service_path(rec: spans.Recorder, lane: lanes.ServiceLane,
                 state: dict) -> list[tuple]:
    """Every open-loop and check-schedule request answered in process,
    the way the daemon answers it, one layer call at a time; returns
    (request, reply)."""
    from repro.analysis import minimal_keys
    from repro.inference import ImplicationSession
    from repro.inference.session import sigma_fingerprint
    from repro.nfd import ValidatorEngine
    from repro.nfd.parser import parse_nfd
    from repro.paths.path import parse_path
    from repro.server.protocol import decode_line, encode, parse_bundle_payload

    sessions = state.setdefault("sessions", {})
    validators = state.setdefault("validators", {})
    replies = []
    with rec.span("path.service"):
        for request in lane.inputs.open_loop + lane.inputs.check_loop:
            with rec.span("service.request", request=str(request.rid)):
                with rec.span("server.protocol.decode_line"):
                    payload = decode_line(request.frame)
                with rec.span("server.protocol.parse_bundle_payload"):
                    schema, sigma, instance, spec = \
                        parse_bundle_payload(payload["bundle"])
                with rec.span("inference.sigma_fingerprint"):
                    sigma_fingerprint(schema, sigma, spec)
                k = request.sigma
                if request.kind == "check":
                    if k not in validators:
                        with rec.span("nfd.ValidatorEngine"):
                            validators[k] = ValidatorEngine(schema, sigma)
                    with rec.span("nfd.ValidatorEngine.validate"):
                        found = validators[k].validate(
                            instance, all_violations=True)
                    described = [v.describe() for v in found.violations]
                    result = {"satisfied": not described,
                              "violations": described}
                else:
                    if k not in sessions:
                        with rec.span("inference.ImplicationSession"):
                            sessions[k] = ImplicationSession(schema, sigma)
                    session = sessions[k]
                    if request.kind == "implies":
                        nfd = parse_nfd(payload["nfd"])
                        with rec.span("inference.ImplicationSession.implies"):
                            result = {"implied": session.implies(nfd)}
                    elif request.kind == "closure":
                        queries = [(parse_path(base),
                                    {parse_path(p) for p in paths})
                                   for base, paths in payload["queries"]]
                        with rec.span(
                                "inference.ImplicationSession.closure_batch"):
                            closed = session.closure_batch(queries)
                        result = {"closures": [[str(p) for p in sorted(c)]
                                               for c in closed]}
                    else:
                        with rec.span("analysis.minimal_keys"):
                            keys = minimal_keys(schema, sigma,
                                                payload["relation"],
                                                engine=session)
                        result = {"keys": [sorted(str(p) for p in key)
                                           for key in keys]}
                with rec.span("server.protocol.encode"):
                    frame = encode({"id": request.rid, "ok": True,
                                    "type": request.kind,
                                    "result": result})
            replies.append((request, frame))
    return replies


def _daemon_stats(lane: lanes.ServiceLane) -> dict:
    (reply, _), = loadgen.one_by_one(lane.daemon.host, lane.daemon.port,
                                     [b'{"id":"stats","type":"stats"}\n'])
    return reply["result"]


def service_layers(rec: spans.Recorder, lane: lanes.ServiceLane,
                   ledger: lanes.Ledger, report) -> tuple[dict, dict, list]:
    from repro.design import sweep_normalize

    state: dict = {}
    for request, frame in service_path(rec, lane, state):
        ledger.record(lane.ref.reply_ok(request, json.loads(frame)),
                      f"traced {request.kind} #{request.rid}")
    sessions = state["sessions"].values()
    queries = sum(s.stats.queries for s in sessions)
    hits = sum(s.stats.hits for s in sessions)
    timed = lane.inputs.open_loop + lane.inputs.check_loop
    frames = [r.frame for r in timed]
    codec = [d + e for d, e in zip(
        rec.durations("server.protocol.decode_line"),
        rec.durations("server.protocol.encode"))]
    kinds = {str(r.rid): r.kind for r in timed}
    checks = [s for s in rec.spans
              if s.name == "server.protocol.parse_bundle_payload"
              and kinds[s.request] == "check"]

    # the daemon: pool counters over one open-loop pass
    before = _daemon_stats(lane)
    with rec.span("loadgen.open_loop"):
        samples = loadgen.open_loop(lane.daemon.host, lane.daemon.port,
                                    lane.inputs.open_loop)
    after = _daemon_stats(lane)
    with rec.span("loadgen.check_schedule"):
        check_samples = loadgen.open_loop(
            lane.daemon.host, lane.daemon.port, lane.inputs.check_loop)
    lane.check_replies(samples + check_samples)
    pool = {key: after["pool"][key] - before["pool"][key]
            for key in ("hits", "misses", "evictions", "session_builds")}
    server = {key: after["server"][key] - before["server"][key]
              for key in ("sheds", "requests")}
    service_ms = (after["server"]["latency_mean_ms"]
                  * after["server"]["requests"]
                  - before["server"]["latency_mean_ms"]
                  * before["server"]["requests"]) / server["requests"]

    # design synthesis and process fan-out, as normalize --sweep runs it
    sweep = next(c for c in lane.inputs.cli_script
                 if c.kind == "normalize")
    seed = int(sweep.args[-1])
    with rec.span("design.sweep_normalize[jobs=1]"):
        serial = sweep_normalize(inputs.SWEEP_COUNT, jobs=1, seed=seed)
    with rec.span("design.sweep_normalize[jobs=2]"):
        fanned = sweep_normalize(inputs.SWEEP_COUNT, jobs=2, seed=seed)
    ledger.record(serial.to_text() + "\n" == fanned.to_text() + "\n"
                  == lane.sweep_want[seed][0], "traced sweep")
    jobs1 = rec.total("design.sweep_normalize[jobs=1]")

    lookups = pool["hits"] + pool["misses"]
    metrics = {
        "io.bundle_decode_ms": (_mean([s.duration for s in checks]) * 1e3,
                                "ms"),
        "nfd.validate_ms": (_mean(
            rec.durations("nfd.ValidatorEngine.validate")) * 1e3, "ms"),
        "inference.session_build_ms": (_mean(
            rec.durations("inference.ImplicationSession")) * 1e3, "ms"),
        "inference.query_us": (_mean(
            rec.durations("inference.ImplicationSession.implies")) * 1e6,
            "us"),
        "inference.rule_attempts": (
            sum(s.stats.engine.attempts for s in sessions), "count"),
        "inference.saturations": (
            sum(s.stats.engine.saturations for s in sessions), "count"),
        "inference.memo_hit_ratio": (hits / queries if queries else 0.0,
                                     "share"),
        "analysis.keys_ms": (_mean(
            rec.durations("analysis.minimal_keys")) * 1e3, "ms"),
        "server.frame_codec_us": (_mean(codec) * 1e6, "us"),
        "server.bytes_per_request": (_mean(map(len, frames)), "B"),
        "server.pool_hit_ratio": (pool["hits"] / lookups if lookups
                                  else 0.0, "share"),
        "server.evictions": (pool["evictions"], "count"),
        "server.session_builds": (pool["session_builds"], "count"),
        "server.sheds": (server["sheds"], "count"),
        "server.service_ms_mean": (service_ms, "ms"),
        "loadgen.late_ms": (statistics.median(
            s.late_ms for s in samples + check_samples), "ms"),
        "design.synthesize_ms": (jobs1 / inputs.SWEEP_COUNT * 1e3, "ms"),
        "parallel.map_jobs1_s": (jobs1, "s"),
        "parallel.map_jobs2_s": (
            rec.total("design.sweep_normalize[jobs=2]"), "s"),
    }
    for kind, kind_samples in (("query", samples),
                               ("check", check_samples)):
        values = lane.latencies(kind_samples)
        pct, value = tail(values, TAIL_BEYOND[kind])
        metrics[f"daemon_{kind}_p50_ms"] = (statistics.median(values), "ms")
        metrics[f"daemon_{kind}_tail_ms"] = (value, "ms")
        limit = lanes.LATENCY_LIMIT_MS[kind]
        report(f"daemon_{kind}: {len(values)} requests, tail is "
               f"p{pct:.1f}, {sum(1 for v in values if v > limit)} over "
               f"the {limit:g} ms limit")
    report(f"open loop: {RATE:g} queries/s offered, then "
           f"{inputs.CHECK_COUNT} checks at {inputs.CHECK_RATE:g}/s")
    counts = {"inference.memo_hit_ratio": f"{hits}/{queries}",
              "server.pool_hit_ratio": f"{pool['hits']}/{lookups}",
              "server.bytes_per_request":
                  f"{sum(map(len, frames))}/{len(frames)}"}
    compilations = [v.stats.plan_compilations
                    for v in state["validators"].values()]
    return metrics, counts, compilations


# -- attribution and overhead --------------------------------------------------------

def _attributed(rec: spans.Recorder, root: str) -> float:
    """Summed self time of every layer span under the last *root*."""
    selfs = rec.self_times()
    last = [s for s in rec.spans if s.name == root][-1]
    return sum(selfs[s.id] for s in rec.descendants(last.id))


def _overhead(path) -> float:
    """Wall time of *path* with a recording recorder over one that
    records nothing: after one untimed warm-up, OVERHEAD_PAIRS pairs in
    alternating order, each run started after a full collection,
    medians compared."""
    path(spans.Recorder(enabled=False))  # warm-up, untimed
    times: dict[bool, list[float]] = {True: [], False: []}
    for pair in range(OVERHEAD_PAIRS):
        for enabled in ((False, True) if pair % 2 else (True, False)):
            gc.collect()
            start = time.perf_counter()
            path(spans.Recorder(enabled=enabled))
            times[enabled].append(time.perf_counter() - start)
    return (statistics.median(times[True])
            / statistics.median(times[False]) - 1.0)


def attribution(rec: spans.Recorder, workload: str, spill, append,
                import_s: float) -> dict:
    """Untraced end-to-end unit of work against the layer self times of
    its replay, and the replay's tracing overhead."""
    if PRIMARY[workload] == "spill":
        spill.walls.clear()
        for _ in range(E2E_PROBES):
            spill.once()
        e2e = statistics.median(spill.walls)
        layers = import_s + _attributed(rec, "path.spill")
        overhead = _overhead(lambda r: spill_path(r, spill))
    else:
        append.walls.clear()
        for _ in range(E2E_PROBES):
            append.once()
        e2e = statistics.median(append.walls)
        layers = import_s + _attributed(rec, "path.append")

        def resume(r):
            append.restore()
            append_path(r, append, {})
        overhead = _overhead(resume)
    return {
        "trace.overhead_share": (overhead, "share"),
        "trace.unattributed_share": (1.0 - layers / e2e, "share"),
    }


# -- the traced run ---------------------------------------------------------------

def traced(workload: str, seed: int, work: str, report) -> dict:
    env = prepare_env(work)
    ledger = lanes.Ledger()
    rec = spans.Recorder()
    spill, append, service = set_up(workload, seed, work, env, ledger)
    metrics: dict = {}
    counts: dict = {}
    try:
        spill.prepare_reference()
        append.prepare_reference()
        service.prepare_reference()
        metrics.update(import_layer(env, work))
        spill_metrics, spill_counts, compiled = spill_layers(rec, spill,
                                                             ledger)
        metrics.update(spill_metrics)
        counts.update(spill_counts)
        append_metrics, append_counts = append_layers(rec, append, ledger)
        metrics.update(append_metrics)
        counts.update(append_counts)
        service_metrics, service_counts, more = service_layers(
            rec, service, ledger, report)
        metrics.update(service_metrics)
        counts.update(service_counts)
        compiled += more
        compile_spans = (rec.durations("nfd.StreamValidator")
                         + rec.durations("nfd.ValidatorEngine"))
        metrics["nfd.compile_ms"] = (_mean(compile_spans) * 1e3, "ms")
        metrics["nfd.plan_compilations"] = (sum(compiled), "count")
        metrics.update(attribution(rec, workload, spill, append,
                                   metrics["cli.import_s"][0]))
    finally:
        service.stop()
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    metrics["failed_share"] = (share, "share")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    rec.write_jsonl(span_file)
    for name, (value, unit) in sorted(metrics.items()):
        exact = f" (= {counts[name]})" if name in counts else ""
        report(f"{name} = {value:.6g} {unit}{exact}")
    report(f"{len(rec.spans)} spans written to "
           f"{os.path.relpath(span_file, ROOT)}")
    report(f"roles: {roles(workload)}; failed {ledger.failed} of "
           f"{ledger.attempted}")
    for reason in ledger.reasons:
        report(f"  failure: {reason}")
    return {"correct": ledger.failed == 0,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
