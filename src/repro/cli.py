"""Command-line interface: ``python -m repro <command> ...``.

All commands operate on JSON *bundle* files as produced by
:func:`repro.io.dump_bundle` — a schema, an NFD set, and optionally an
instance::

    {"schema": {"Course": "{<cnum: string, ...>}"},
     "nfds": ["Course:[cnum -> time]", ...],
     "instance": {"Course": [...]}}

Commands:

========  ==========================================================
check     validate the bundle's instance; print violation witnesses
implies   decide whether the bundle's NFDs imply a candidate
closure   print the closure of a path set at a base path
explain   print the justification tree for an implied candidate
prove     compile a machine-checked derivation of an implication
counter   build the Appendix-A countermodel for a non-implied NFD
render    pretty-print the instance as nested tables
keys      list the minimal keys of a relation
diff      semantic diff of two constraint sets
analyze   keys / singletons / redundancy / minimal-cover report
normalize synthesize a nested normal-form design (or sweep many)
report    render the whole bundle as a Markdown document
repair    chase the instance into consistency, write a new bundle
cache     persistent cache maintenance (stats / clear / vacuum)
serve     run the constraint-checking daemon (see repro.server)
client    administer a running daemon (ping / stats / shutdown)
========  ==========================================================

Commands that reason under the Section 3.2 empty-set rules accept
``--nonempty PATH`` declarations (repeatable); a bundle may persist its
own declarations under ``"nonempty"``, which explicit flags override.
The ``counter`` command is the exception: the Appendix-A construction
lives in the Section 3.1 setting, so it rejects a restrictive spec
instead of silently ignoring it.

Every closure query runs on one kernel, the interned bitset kernel of
:mod:`repro.inference.dense`; ``explain`` and ``prove`` additionally
record the saturation steps they justify.  ``implies``, ``closure``,
``keys``, ``analyze``, and ``normalize`` still parse the retired
``--strategy {worklist,naive,dense}`` flag so old scripts keep working:
it is hidden from ``--help``, ignored, and an unknown name is still a
usage error (exit 2).

``repro normalize BUNDLE`` runs the nested normalization pipeline
(see :mod:`repro.design.synthesize`): minimal cover, 3NF-style nest
candidates, scoring by enforceability and residual BCNF redundancy,
and a dependency-preservation verdict for the winner — exit 0 when the
design preserves Sigma and the round-trip validation is clean.
``repro normalize --sweep N --jobs J`` normalizes N generated flat
schemas instead (byte-identical stdout for every J) and gates on
``--min-preserved RATE``.

Commands that build a closure engine accept ``--stats``, which prints
the engine's saturation counters (see
:class:`repro.inference.EngineStats`) to stderr after the normal
output, so scripted stdout consumers are unaffected.  ``check --stats``
does the same with the batch validation engine's counters
(:class:`repro.nfd.ValidatorStats`); exit codes are unchanged either
way.

Query commands that run through an implication session additionally
accept ``--cache-stats``, printing the session's memoization counters
(:class:`repro.inference.SessionStats`) to stderr, and the analysis
commands ``keys`` and ``check`` accept ``--jobs N`` to fan their work
out across *N* worker processes — stdout is byte-identical to the
serial run (deterministic result ordering), only wall-clock changes.

``check --stream FILE`` validates a JSONL dump of one relation
out-of-core (see :mod:`repro.nfd.stream_validate`): elements are
consumed one at a time, group tables spill to disk under ``--max-rows``,
``--shards N`` with ``--jobs N`` fans contiguous shards across
processes, and ``--deadline`` / ``--max-elements`` bound the run
cooperatively — a budget-exhausted run prints what it found, notes the
partial verdict on stderr, and exits 2 when no violation was seen.

The observability commands — ``check``, ``implies``, ``closure``,
``keys``, ``analyze``, ``normalize`` — additionally accept ``--trace FILE`` (write a
JSON Lines span trace of the run; see :class:`repro.obs.Tracer`) and
``--metrics-json FILE`` (write one consolidated
:class:`repro.obs.RunReport`).  Each command builds exactly one report;
the ``--stats`` / ``--cache-stats`` stderr text and the metrics JSON
render from the same frozen snapshots, so their numbers always
reconcile.  Neither flag changes stdout or the exit code.

``check``, ``implies``, ``closure``, and ``keys`` accept
``--cache-dir DIR`` (default: the ``REPRO_CACHE_DIR`` environment
variable) naming a directory whose SQLite database persists derived
state across runs (see :mod:`repro.store`): closure memos, compiled
validation plans, and — with ``check --stream FILE --incremental`` —
stream checkpoints, so a re-validation of an appended JSONL file folds
only the new lines.  The cache is purely an accelerator: a missing,
corrupt, or version-mismatched database degrades to the cold
computation with a warning on stderr and identical stdout and exit
codes.  ``repro cache stats|clear|vacuum`` maintains the database.

``repro serve`` runs the long-lived constraint-checking daemon (see
:mod:`repro.server`): a line-delimited JSON protocol over TCP, a warm
pool of sessions and compiled plans shared by every client, admission
control, and cooperative deadlines.  ``check``, ``implies``,
``closure``, and ``keys`` accept ``--server HOST:PORT`` to route the
query through a running daemon instead of computing in-process —
stdout and exit codes are identical either way (observability stays
server-side: query it with ``repro client stats``).  ``repro client
ping|stats|shutdown`` administer a daemon.

Every command returns a conventional exit status (0 success / holds,
1 violation / does not hold, 2 usage error), so the CLI composes with
shell scripting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath

from .analysis import minimal_keys
from .chase import repair as chase_repair
from .errors import ReproError
from .inference import (
    ClosureEngine,
    ImplicationSession,
    NonEmptySpec,
    build_countermodel,
)
from .io import dump_bundle, load_bundle, load_spec, render_instance
from .nfd import ValidatorEngine, parse_nfd
from .obs import RunReport, Tracer
from .paths import parse_path

__all__ = ["main", "build_parser"]


def _load(path_text: str):
    try:
        content = FilePath(path_text).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read bundle {path_text!r}: {exc}") \
            from exc
    return load_bundle(content)


def _spec_from_args(args) -> NonEmptySpec | None:
    """The NON-NULL spec: --nonempty flags win over the bundle's own.

    Bundles may persist their declarations (see
    :func:`repro.io.dump_bundle`); explicit flags override them so a
    what-if query never requires editing the file.
    """
    declared = getattr(args, "nonempty", None)
    if declared:
        return NonEmptySpec({parse_path(text) for text in declared})
    bundle = getattr(args, "bundle", None)
    if bundle:
        try:
            return load_spec(FilePath(bundle).read_text())
        except OSError:
            return None
    return None


def _tracer_from_args(args) -> Tracer | None:
    """A :class:`Tracer` when ``--trace`` was given, else ``None``.

    ``None`` keeps every instrumented call site on its exact pre-obs
    code path (a single ``is None`` check); no tracer object exists
    unless the user asked for one.
    """
    if getattr(args, "trace", None):
        return Tracer()
    return None


def _store_from_args(args):
    """An open writable :class:`~repro.store.CacheStore` when a cache
    directory is configured (``--cache-dir`` flag, else the
    ``REPRO_CACHE_DIR`` environment variable), else ``None`` — the
    no-persistence default.  An unusable directory yields a store that
    warns once and misses everywhere; cold behavior is unchanged.
    """
    from .store import open_store, resolve_cache_dir

    return open_store(resolve_cache_dir(getattr(args, "cache_dir",
                                                None)))


def _finish_store(report: RunReport, store) -> None:
    """Freeze the store's hit/miss counters into the report's ``cache``
    section and release the database handle."""
    if store is not None:
        report.add("cache", store.stats)
        store.close()


def _obs_finish(args, report: RunReport, tracer: Tracer | None) -> None:
    """Emit every observability output of a command from one report.

    The ``--stats`` / ``--cache-stats`` stderr blocks and the
    ``--metrics-json`` file all render from the *same* frozen
    :class:`RunReport` snapshots, so their numbers reconcile by
    construction; ``--trace`` dumps the tracer's span log as JSONL.
    """
    if getattr(args, "stats", False):
        for name in ("closure", "validator", "stream", "cache"):
            if name in report:
                print(report.section_text(name), file=sys.stderr)
    if getattr(args, "cache_stats", False) and "session" in report:
        print(report.section_text("session"), file=sys.stderr)
    path = getattr(args, "metrics_json", None)
    if path:
        report.write_json(path)
    if tracer is not None:
        tracer.write_jsonl(args.trace)


def _emit_stats(args, engine) -> None:
    """Print an engine's counters to stderr when ``--stats`` was given.

    Works for any engine exposing ``.stats.to_text()`` — the closure
    engine and the batch validation engine both do.
    """
    if getattr(args, "stats", False):
        print(engine.stats.to_text(), file=sys.stderr)


def _emit_cache_stats(args, session) -> None:
    """Print a session's memoization counters to stderr when
    ``--cache-stats`` was given (None sessions are skipped)."""
    if getattr(args, "cache_stats", False) and session is not None:
        print(session.stats.to_text(), file=sys.stderr)


# -- daemon passthrough ----------------------------------------------------


def _remote_client(args):
    """A connected :class:`~repro.server.ReproClient` for ``--server``.

    Transport failures raise :class:`~repro.errors.ReproError`
    subclasses, which :func:`main` renders as ``error: ...`` + exit 2.
    """
    from .server import ReproClient, parse_endpoint

    host, port = parse_endpoint(args.server)
    return ReproClient(host, port)


def _remote_bundle(args) -> dict:
    """The bundle file as a plain JSON object, with ``--nonempty``
    flags overriding the persisted declarations — the same precedence
    :func:`_spec_from_args` gives the in-process path."""
    import json

    try:
        content = FilePath(args.bundle).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read bundle {args.bundle!r}: {exc}") \
            from exc
    try:
        payload = json.loads(content)
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"bundle is not valid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ReproError("bundle must be a JSON object")
    declared = getattr(args, "nonempty", None)
    if declared:
        payload["nonempty"] = list(declared)
    return payload


def _obs_note(args) -> None:
    """Observability lives daemon-side: note ignored local flags."""
    ignored = [flag for flag, name in (
        ("--stats", "stats"), ("--cache-stats", "cache_stats"),
        ("--trace", "trace"), ("--metrics-json", "metrics_json"),
    ) if getattr(args, name, None)]
    if ignored:
        print(f"note: {', '.join(ignored)} ignored with --server "
              "(query the daemon with `repro client stats`)",
              file=sys.stderr)


def _cmd_check_remote(args) -> int:
    _obs_note(args)
    bundle = _remote_bundle(args)
    if bundle.get("instance") is None:
        print("bundle has no instance to check", file=sys.stderr)
        return 2
    with _remote_client(args) as client:
        result = client.check(bundle)
    for violation in result.get("violations", ()):
        print(violation)
        print()
    if not result.get("satisfied", False):
        print(f"{len(result.get('violations', ()))} violation(s)")
        return 1
    print("instance satisfies all constraints")
    return 0


def _cmd_implies_remote(args) -> int:
    _obs_note(args)
    bundle = _remote_bundle(args)
    with _remote_client(args) as client:
        implied = client.implies(bundle, args.nfd)
    candidate = parse_nfd(args.nfd)
    print(f"{'implied' if implied else 'not implied'}: {candidate}")
    return 0 if implied else 1


def _cmd_closure_remote(args) -> int:
    _obs_note(args)
    bundle = _remote_bundle(args)
    base = parse_path(args.base)
    lhs = {parse_path(text) for text in args.paths}
    with _remote_client(args) as client:
        closed = client.closure(bundle, args.base, list(args.paths))
    lhs_text = ", ".join(sorted(map(str, lhs))) or "∅"
    print(f"({base}, {{{lhs_text}}})* =")
    for path in closed:
        print(f"  {path}")
    return 0


def _cmd_keys_remote(args) -> int:
    _obs_note(args)
    bundle = _remote_bundle(args)
    with _remote_client(args) as client:
        result = client.keys(bundle, args.relation)
    relation = result.get("relation", args.relation)
    keys = result.get("keys", [])
    if not keys:
        print(f"{relation}: no key among the top-level attributes")
        return 1
    for key in keys:
        print(f"{relation}: {{{', '.join(key)}}}")
    return 0


def _cmd_check(args) -> int:
    if getattr(args, "server", None):
        if getattr(args, "stream", None):
            print("error: --stream runs locally; drop --server",
                  file=sys.stderr)
            return 2
        return _cmd_check_remote(args)
    if getattr(args, "stream", None):
        return _cmd_check_stream(args)
    schema, sigma, instance = _load(args.bundle)
    if instance is None:
        print("bundle has no instance to check", file=sys.stderr)
        return 2
    from .values import check_instance
    check_instance(instance)
    tracer = _tracer_from_args(args)
    store = _store_from_args(args)
    if store is not None:
        from .store import cached_validator
        engine = cached_validator(schema, sigma, store=store,
                                  tracer=tracer)
    else:
        engine = ValidatorEngine(schema, sigma, tracer=tracer)
    result = engine.validate(instance, all_violations=True,
                             jobs=getattr(args, "jobs", 1))
    for violation in result.violations:
        print(violation.describe())
        print()
    report = RunReport(command="check").add("validator", engine.stats)
    _finish_store(report, store)
    _obs_finish(args, report, tracer)
    if result.violations:
        print(f"{len(result.violations)} violation(s)")
        return 1
    print("instance satisfies all constraints")
    return 0


def _cmd_check_stream(args) -> int:
    """``check --stream FILE``: out-of-core validation of a JSONL dump.

    The bundle supplies the schema and Σ; the instance (if any) is
    ignored in favour of the streamed relation.  Exit codes match the
    in-memory path — 0 satisfied, 1 violations, 2 errors — with one
    addition: a run cut short by its resource budget that found no
    violation exits 2 (the verdict is unknown, not "satisfied").
    """
    from .nfd import ResourceBudget, shard_validate, stream_validate
    from .io import iter_jsonl_elements, plan_shards

    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    schema, sigma, _ = _load(args.bundle)
    relation = args.relation
    if relation is None:
        constrained = sorted({nfd.relation for nfd in sigma})
        if len(constrained) == 1:
            relation = constrained[0]
        elif len(schema.relation_names) == 1:
            relation = schema.relation_names[0]
        else:
            print("error: --relation is required when the bundle "
                  "constrains several relations", file=sys.stderr)
            return 2
    streamed = [nfd for nfd in sigma if nfd.relation == relation]
    skipped = len(sigma) - len(streamed)
    if skipped:
        print(f"note: {skipped} constraint(s) on other relations "
              f"not checked against the stream", file=sys.stderr)
    budget = None
    if args.max_rows is not None or args.deadline is not None \
            or args.max_elements is not None:
        budget = ResourceBudget(max_resident_rows=args.max_rows,
                                deadline=args.deadline,
                                max_elements=args.max_elements)
    tracer = _tracer_from_args(args)
    store = _store_from_args(args)
    spill_root = None
    if store is not None:
        from .store import default_spill_root
        spill_root = default_spill_root(store.cache_dir)
    if getattr(args, "incremental", False):
        if store is None:
            print("error: --incremental requires a cache directory "
                  "(--cache-dir or REPRO_CACHE_DIR)", file=sys.stderr)
            return 2
        if args.shards > 1:
            print("error: --incremental runs single-shard; drop "
                  "--shards", file=sys.stderr)
            store.close()
            return 2
        from .store import incremental_stream_validate
        result, info = incremental_stream_validate(
            schema, streamed, relation, args.stream, store=store,
            budget=budget, tracer=tracer, spill_root=spill_root)
        print(f"incremental: {info['mode']} at line "
              f"{info['start_line']}/{info['total_lines']}, "
              f"{info['elements_folded']} element(s) folded",
              file=sys.stderr)
    elif args.shards > 1:
        shards = plan_shards(args.stream, args.shards)
        result = shard_validate(schema, streamed, relation, shards,
                                jobs=getattr(args, "jobs", 1),
                                budget=budget, tracer=tracer,
                                spill_root=spill_root, store=store,
                                cache_dir=store.cache_dir
                                if store is not None else None)
    else:
        reader = iter_jsonl_elements(args.stream, schema, relation)
        result = stream_validate(schema, streamed, {relation: reader},
                                 budget=budget, tracer=tracer,
                                 spill_root=spill_root, store=store)
    for violation in result.violations:
        print(violation.describe())
        print()
    report = RunReport(command="check").add("stream", result.stats)
    _finish_store(report, store)
    _obs_finish(args, report, tracer)
    if result.budget_exhausted is not None:
        print(f"budget exhausted ({result.budget_exhausted}) after "
              f"{result.elements_seen} element(s); partial result",
              file=sys.stderr)
    if result.violations:
        print(f"{len(result.violations)} violation(s)")
        return 1
    if result.budget_exhausted is not None:
        return 2
    print("instance satisfies all constraints")
    return 0


def _cmd_implies(args) -> int:
    if getattr(args, "server", None):
        return _cmd_implies_remote(args)
    schema, sigma, _ = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    tracer = _tracer_from_args(args)
    store = _store_from_args(args)
    session = ImplicationSession(schema, sigma,
                                 nonempty=_spec_from_args(args),
                                 tracer=tracer, store=store)
    status = 0 if session.implies(candidate) else 1
    print(f"{'implied' if status == 0 else 'not implied'}: {candidate}")
    report = (RunReport(command="implies")
              .add("closure", session.engine.stats)
              .add("session", session.stats))
    _finish_store(report, store)
    _obs_finish(args, report, tracer)
    return status


def _cmd_closure(args) -> int:
    if getattr(args, "server", None):
        return _cmd_closure_remote(args)
    schema, sigma, _ = _load(args.bundle)
    base = parse_path(args.base)
    lhs = {parse_path(text) for text in args.paths}
    tracer = _tracer_from_args(args)
    store = _store_from_args(args)
    session = ImplicationSession(schema, sigma,
                                 nonempty=_spec_from_args(args),
                                 tracer=tracer, store=store)
    closed = session.closure(base, lhs)
    lhs_text = ", ".join(sorted(map(str, lhs))) or "∅"
    print(f"({base}, {{{lhs_text}}})* =")
    for path in sorted(closed):
        print(f"  {path}")
    report = (RunReport(command="closure")
              .add("closure", session.engine.stats)
              .add("session", session.stats))
    _finish_store(report, store)
    _obs_finish(args, report, tracer)
    return 0


def _cmd_explain(args) -> int:
    schema, sigma, _ = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma, nonempty=_spec_from_args(args))
    if not engine.implies(candidate):
        print(f"not implied: {candidate}", file=sys.stderr)
        return 1
    print(engine.explain(candidate).to_text())
    _emit_stats(args, engine)
    return 0


def _cmd_prove(args) -> int:
    from .inference import compile_proof

    schema, sigma, _ = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    engine = ClosureEngine(schema, sigma, nonempty=_spec_from_args(args))
    if not engine.implies(candidate):
        print(f"not implied: {candidate}", file=sys.stderr)
        return 1
    proof = compile_proof(engine, candidate)
    print("hypotheses:")
    for index, nfd in enumerate(sigma):
        print(f"  s{index + 1}. {nfd}")
    print(proof.to_text())
    _emit_stats(args, engine)
    return 0


def _cmd_counter(args) -> int:
    schema, sigma, _ = _load(args.bundle)
    candidate = parse_nfd(args.nfd)
    spec = _spec_from_args(args)
    if spec is not None and not spec.declares_everything:
        # the Appendix-A construction assumes Section 3.1 (no empty
        # sets); honouring a restrictive spec would need a different
        # witness builder, so refuse rather than silently drop it
        print("error: countermodels require the Section 3.1 setting "
              "(no empty sets); drop --nonempty and the bundle's "
              '"nonempty" declarations, or use `implies` for the gated '
              "question", file=sys.stderr)
        return 2
    engine = ClosureEngine(schema, sigma)
    if engine.implies(candidate):
        print(f"implied — no countermodel exists: {candidate}",
              file=sys.stderr)
        _emit_stats(args, engine)
        return 1
    witness = build_countermodel(engine, candidate.base, candidate.lhs)
    if args.output:
        FilePath(args.output).write_text(
            dump_bundle(schema, sigma, witness))
        print(f"countermodel written to {args.output}")
    else:
        print(render_instance(witness))
    _emit_stats(args, engine)
    return 0


def _cmd_render(args) -> int:
    _, _, instance = _load(args.bundle)
    if instance is None:
        print("bundle has no instance to render", file=sys.stderr)
        return 2
    print(render_instance(instance))
    return 0


def _cmd_keys(args) -> int:
    if getattr(args, "server", None):
        return _cmd_keys_remote(args)
    schema, sigma, _ = _load(args.bundle)
    relation = args.relation or schema.relation_names[0]
    spec = _spec_from_args(args)
    jobs = getattr(args, "jobs", 1)
    tracer = _tracer_from_args(args)
    store = _store_from_args(args)
    session = None
    if jobs <= 1:
        session = ImplicationSession(schema, sigma, spec, tracer=tracer,
                                     store=store)
    elif getattr(args, "cache_stats", False):
        print("cache stats unavailable with --jobs > 1 (each worker "
              "process holds its own session)", file=sys.stderr)
    keys = minimal_keys(schema, sigma, relation, engine=session,
                        nonempty=spec, jobs=jobs,
                        cache_dir=store.cache_dir
                        if store is not None else None)
    report = RunReport(command="keys")
    if session is not None:
        report.add("closure", session.engine.stats)
        report.add("session", session.stats)
    if not keys:
        print(f"{relation}: no key among the top-level attributes")
        _finish_store(report, store)
        _obs_finish(args, report, tracer)
        return 1
    for key in keys:
        print(f"{relation}: {{{', '.join(sorted(map(str, key)))}}}")
    _finish_store(report, store)
    _obs_finish(args, report, tracer)
    return 0


def _cmd_diff(args) -> int:
    from .analysis import diff_sigmas

    schema, old_sigma, _ = _load(args.old_bundle)
    new_schema, new_sigma, _ = _load(args.new_bundle)
    if new_schema != schema:
        print("error: the two bundles declare different schemas",
              file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    old_session = ImplicationSession(schema, old_sigma, spec)
    new_session = ImplicationSession(schema, new_sigma, spec)
    diff = diff_sigmas(schema, old_sigma, new_sigma, nonempty=spec,
                       old_session=old_session,
                       new_session=new_session)
    print(diff.to_text())
    _emit_cache_stats(args, old_session)
    _emit_cache_stats(args, new_session)
    return 0 if diff.equivalent else 1


def _cmd_analyze(args) -> int:
    from .analysis import analyze_constraints

    schema, sigma, instance = _load(args.bundle)
    spec = _spec_from_args(args)
    tracer = _tracer_from_args(args)
    session = ImplicationSession(schema, list(sigma), spec,
                                 tracer=tracer)
    analysis = analyze_constraints(schema, sigma, nonempty=spec,
                                   session=session)
    print(analysis.to_text())
    report = (RunReport(command="analyze")
              .add("closure", session.engine.stats)
              .add("session", session.stats))
    if instance is not None:
        # one run, one report: when the bundle carries an instance,
        # validate it too so the analyze report consolidates closure,
        # session, AND validator metrics (the exit code stays 0 —
        # `check` is the verdict command)
        validator = ValidatorEngine(schema, sigma, tracer=tracer)
        validator.validate(instance, all_violations=True)
        report.add("validator", validator.stats)
    _obs_finish(args, report, tracer)
    return 0


def _cmd_normalize(args) -> int:
    """``repro normalize``: synthesize a nested normal-form design.

    With a bundle, normalize its (or ``--relation``'s) relation and
    print the :class:`~repro.design.DesignReport`; exit 0 when the
    winning design preserves Sigma and the round-trip validation found
    no violations, 1 otherwise.  With ``--sweep N``, normalize N
    generated flat schemas (deterministic in ``--seed``, fanned out
    over ``--jobs``) and gate on ``--min-preserved``.
    """
    from .design import sweep_normalize, synthesize_design

    tracer = _tracer_from_args(args)
    report = RunReport(command="normalize")
    if args.sweep is not None:
        if args.sweep < 1:
            print("error: --sweep needs a positive count",
                  file=sys.stderr)
            return 2
        summary = sweep_normalize(
            args.sweep, jobs=args.jobs, seed=args.seed,
            rules=args.rules, max_fields=args.max_fields,
            mode=args.mode)
        print(summary.to_text())
        report.add("design", summary)
        _obs_finish(args, report, tracer)
        return 0 if summary.ok(args.min_preserved) else 1
    if args.bundle is None:
        print("error: pass a bundle file or --sweep N",
              file=sys.stderr)
        return 2
    schema, sigma, instance = _load(args.bundle)
    spec = _spec_from_args(args)
    design = synthesize_design(schema, sigma, args.relation,
                               nonempty=spec,
                               mode=args.mode, instance=instance,
                               tracer=tracer)
    print(design.to_text())
    report.add("design", design)
    _obs_finish(args, report, tracer)
    ok = design.preserved and not design.roundtrip.startswith("violations")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from .io import markdown_report

    schema, sigma, instance = _load(args.bundle)
    text = markdown_report(schema, sigma, instance,
                           title=args.title,
                           nonempty=_spec_from_args(args))
    if args.output:
        FilePath(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_repair(args) -> int:
    schema, sigma, instance = _load(args.bundle)
    if instance is None:
        print("bundle has no instance to repair", file=sys.stderr)
        return 2
    fixed = chase_repair(instance, sigma)
    output = args.output or args.bundle
    FilePath(output).write_text(dump_bundle(schema, sigma, fixed))
    changed = "unchanged" if fixed == instance else "repaired"
    print(f"{changed}; written to {output}")
    return 0


def _cmd_cache(args) -> int:
    """``repro cache stats|clear|vacuum``: maintain the persistent
    cache database.  Needs an explicit directory — there is no implicit
    default to clear by accident."""
    from .store import CacheStore, resolve_cache_dir

    cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    if cache_dir is None:
        print("error: no cache directory configured (pass --cache-dir "
              "or set REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    store = CacheStore(cache_dir)
    try:
        if not store.available:
            print(f"error: cannot open cache database under "
                  f"{cache_dir!r}", file=sys.stderr)
            return 2
        if args.action == "stats":
            for key, value in store.summary().items():
                print(f"{key}: {value}")
            return 0
        if args.action == "clear":
            if not store.clear():
                print("error: clearing the cache failed",
                      file=sys.stderr)
                return 2
            print("cache cleared")
            return 0
        if not store.vacuum():
            print("error: vacuum failed", file=sys.stderr)
            return 2
        print("cache vacuumed")
        return 0
    finally:
        store.close()


def _cmd_serve(args) -> int:
    """``repro serve``: run the daemon until SIGINT/SIGTERM.

    Prints one readiness line — ``repro daemon listening on
    HOST:PORT`` — once the listener is bound (with ``--port 0`` the
    line carries the actual ephemeral port), so supervisors and test
    harnesses can wait on it instead of polling.
    """
    from .server import ServerConfig, run_server

    from .store import resolve_cache_dir

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        connection_deadline=args.deadline,
        cache_dir=resolve_cache_dir(getattr(args, "cache_dir", None)),
        allow_debug=args.allow_debug,
        allow_shutdown=args.allow_shutdown,
    )
    tracer = _tracer_from_args(args)

    def announce(server) -> None:
        print(f"repro daemon listening on {server.host}:{server.port}",
              flush=True)

    report = run_server(config, tracer=tracer, ready=announce)
    path = getattr(args, "metrics_json", None)
    if path:
        report.write_json(path)
    if tracer is not None:
        tracer.write_jsonl(args.trace)
    print("repro daemon stopped", flush=True)
    return 0


def _cmd_client(args) -> int:
    """``repro client ping|stats|shutdown``: daemon administration."""
    from .server import ReproClient, parse_endpoint

    host, port = parse_endpoint(args.server)
    with ReproClient(host, port, timeout=args.timeout) as client:
        if args.action == "ping":
            client.ping()
            print(f"pong from {host}:{port}")
            return 0
        if args.action == "stats":
            import json as json_module
            print(json_module.dumps(client.stats(), indent=2,
                                    sort_keys=True))
            return 0
        client.shutdown()
        print("server stopping")
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nested functional dependencies: checking, "
                    "implication, countermodels (Hara & Davidson, "
                    "PODS 1999).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def bundle_arg(sub):
        sub.add_argument("bundle", help="JSON bundle file")

    def nonempty_arg(sub):
        sub.add_argument(
            "--nonempty", action="append", metavar="PATH",
            help="declare a set path (e.g. Course:students) non-empty; "
                 "omit entirely to assume no empty sets (Section 3.1)",
        )

    def stats_arg(sub):
        sub.add_argument(
            "--stats", action="store_true",
            help="print the closure engine's saturation counters to "
                 "stderr",
        )

    def strategy_arg(sub):
        # the retired closure-strategy flag: still parsed (and an
        # unknown name still rejected) so old scripts keep working, but
        # one kernel answers every query, so the value is ignored
        sub.add_argument("--strategy",
                         choices=("worklist", "naive", "dense"),
                         help=argparse.SUPPRESS)

    def cache_stats_arg(sub):
        sub.add_argument(
            "--cache-stats", action="store_true", dest="cache_stats",
            help="print the implication session's memoization counters "
                 "to stderr",
        )

    def jobs_arg(sub):
        sub.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="fan the work out across N worker processes "
                 "(default 1: serial; output is identical either way)",
        )

    def cache_dir_arg(sub):
        sub.add_argument(
            "--cache-dir", metavar="DIR", dest="cache_dir",
            help="persist closure memos, compiled plans, and stream "
                 "checkpoints in DIR's SQLite database across runs "
                 "(default: the REPRO_CACHE_DIR environment variable; "
                 "neither set = no persistence)",
        )

    def server_arg(sub):
        sub.add_argument(
            "--server", metavar="HOST:PORT",
            help="answer through a running `repro serve` daemon "
                 "instead of computing in-process (same stdout and "
                 "exit codes; observability stays server-side)",
        )

    def obs_args(sub):
        sub.add_argument(
            "--trace", metavar="FILE",
            help="record a span trace of the run and write it to FILE "
                 "as JSON Lines (stdout and exit code are unchanged)",
        )
        sub.add_argument(
            "--metrics-json", metavar="FILE", dest="metrics_json",
            help="write the run's consolidated metrics report (the "
                 "same numbers --stats/--cache-stats print) to FILE",
        )

    sub = commands.add_parser("check", help="validate the instance")
    bundle_arg(sub)
    sub.add_argument(
        "--stats", action="store_true",
        help="print the validation engine's counters to stderr",
    )
    sub.add_argument(
        "--stream", metavar="FILE",
        help="validate a JSONL element dump out-of-core instead of the "
             "bundle's in-memory instance (bounded memory; same "
             "witnesses and exit codes)",
    )
    sub.add_argument(
        "--relation", metavar="NAME",
        help="the relation the streamed file holds (default: the one "
             "relation Σ constrains)",
    )
    sub.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split the stream into N contiguous shards, one engine "
             "each (combine with --jobs for process parallelism)",
    )
    sub.add_argument(
        "--max-rows", type=int, default=None, metavar="R",
        dest="max_rows",
        help="spill group tables to disk beyond R resident rows",
    )
    sub.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="stop consuming after S wall-clock seconds and report a "
             "partial result",
    )
    sub.add_argument(
        "--max-elements", type=int, default=None, metavar="M",
        dest="max_elements",
        help="stop after M elements per shard (partial result)",
    )
    sub.add_argument(
        "--incremental", action="store_true",
        help="with --stream: resume from the cache's checkpoint for "
             "this file and fold only appended lines (requires a cache "
             "directory; witnesses match a full cold re-stream)",
    )
    jobs_arg(sub)
    cache_dir_arg(sub)
    server_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = commands.add_parser("implies", help="decide implication")
    bundle_arg(sub)
    sub.add_argument("nfd", help='candidate, e.g. "Course:[cnum -> time]"')
    nonempty_arg(sub)
    stats_arg(sub)
    strategy_arg(sub)
    cache_stats_arg(sub)
    cache_dir_arg(sub)
    server_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_implies)

    sub = commands.add_parser("closure", help="compute (x0, X, Sigma)*")
    bundle_arg(sub)
    sub.add_argument("base", help="base path, e.g. Course or R:A")
    sub.add_argument("paths", nargs="*", help="LHS paths")
    nonempty_arg(sub)
    stats_arg(sub)
    strategy_arg(sub)
    cache_stats_arg(sub)
    cache_dir_arg(sub)
    server_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_closure)

    sub = commands.add_parser("explain", help="justify an implication")
    bundle_arg(sub)
    sub.add_argument("nfd")
    nonempty_arg(sub)
    stats_arg(sub)
    sub.set_defaults(handler=_cmd_explain)

    sub = commands.add_parser("prove",
                              help="compile a machine-checked derivation")
    bundle_arg(sub)
    sub.add_argument("nfd")
    nonempty_arg(sub)
    stats_arg(sub)
    sub.set_defaults(handler=_cmd_prove)

    sub = commands.add_parser("counter",
                              help="build an Appendix-A countermodel")
    bundle_arg(sub)
    sub.add_argument("nfd")
    sub.add_argument("-o", "--output", help="write a bundle instead of "
                                            "printing tables")
    nonempty_arg(sub)
    stats_arg(sub)
    sub.set_defaults(handler=_cmd_counter)

    sub = commands.add_parser("render", help="print nested tables")
    bundle_arg(sub)
    sub.set_defaults(handler=_cmd_render)

    sub = commands.add_parser("keys", help="minimal keys of a relation")
    bundle_arg(sub)
    sub.add_argument("relation", nargs="?", default=None)
    nonempty_arg(sub)
    strategy_arg(sub)
    cache_stats_arg(sub)
    jobs_arg(sub)
    cache_dir_arg(sub)
    server_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_keys)

    sub = commands.add_parser("diff",
                              help="semantic diff of two constraint sets")
    sub.add_argument("old_bundle")
    sub.add_argument("new_bundle")
    nonempty_arg(sub)
    cache_stats_arg(sub)
    sub.set_defaults(handler=_cmd_diff)

    sub = commands.add_parser("analyze",
                              help="keys, singletons, redundancy report")
    bundle_arg(sub)
    nonempty_arg(sub)
    stats_arg(sub)
    strategy_arg(sub)
    cache_stats_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser(
        "normalize", help="synthesize a nested normal-form design")
    sub.add_argument("bundle", nargs="?", default=None,
                     help="JSON bundle file (omit with --sweep)")
    sub.add_argument("--relation", metavar="NAME", default=None,
                     help="the relation to normalize (default: the "
                          "bundle's only relation)")
    sub.add_argument("--sweep", type=int, default=None, metavar="N",
                     help="normalize N generated flat schemas instead "
                          "of a bundle (deterministic in --seed; "
                          "output is identical for every --jobs)")
    sub.add_argument("--seed", type=int, default=0, metavar="S",
                     help="sweep generator seed (default 0)")
    sub.add_argument("--rules", type=int, default=4, metavar="K",
                     help="Sigma size for sweep schemas too small to "
                          "carry the design shape (default 4)")
    sub.add_argument("--max-fields", type=int, default=5, metavar="F",
                     dest="max_fields",
                     help="attribute bound for sweep schemas "
                          "(default 5)")
    sub.add_argument("--min-preserved", type=float, default=0.95,
                     metavar="RATE", dest="min_preserved",
                     help="sweep gate: minimum fraction of designs "
                          "that preserve their Sigma (default 0.95)")
    sub.add_argument("--mode", choices=("session", "fresh"),
                     default="session",
                     help="inference backing: one memoized implication "
                          "session with copy-on-write probes (default) "
                          "or a fresh engine per query (the benchmark "
                          "baseline; identical designs)")
    strategy_arg(sub)
    nonempty_arg(sub)
    jobs_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_normalize)

    sub = commands.add_parser("report",
                              help="render a Markdown report")
    bundle_arg(sub)
    sub.add_argument("--title", default="Constraint report")
    sub.add_argument("-o", "--output", help="write to a file")
    nonempty_arg(sub)
    sub.set_defaults(handler=_cmd_report)

    sub = commands.add_parser("repair",
                              help="chase the instance into consistency")
    bundle_arg(sub)
    sub.add_argument("-o", "--output", help="output bundle "
                                            "(default: in place)")
    sub.set_defaults(handler=_cmd_repair)

    sub = commands.add_parser("cache",
                              help="persistent cache maintenance")
    sub.add_argument("action", choices=("stats", "clear", "vacuum"),
                     help="stats: row counts and size; clear: drop "
                          "every entry; vacuum: reclaim disk space")
    cache_dir_arg(sub)
    sub.set_defaults(handler=_cmd_cache)

    sub = commands.add_parser(
        "serve", help="run the constraint-checking daemon")
    sub.add_argument("--host", default="127.0.0.1",
                     help="interface to bind (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=0, metavar="N",
                     help="port to bind (default 0: an ephemeral port, "
                          "reported on the readiness line)")
    sub.add_argument("--max-sessions", type=int, default=32,
                     dest="max_sessions", metavar="N",
                     help="warm-engine pool bound: distinct Σ "
                          "fingerprints kept live (LRU eviction)")
    sub.add_argument("--max-inflight", type=int, default=8,
                     dest="max_inflight", metavar="N",
                     help="requests executing concurrently before "
                          "admission control queues")
    sub.add_argument("--max-pending", type=int, default=32,
                     dest="max_pending", metavar="N",
                     help="queued requests before new ones are shed "
                          "with an overloaded response")
    sub.add_argument("--deadline", type=float, default=None,
                     metavar="S",
                     help="per-connection wall-clock budget in "
                          "seconds; check requests stop cooperatively "
                          "at the deadline (stream-engine budget)")
    sub.add_argument("--allow-debug", action="store_true",
                     dest="allow_debug",
                     help="honour ping sleep_ms (testing aid)")
    sub.add_argument("--allow-shutdown", action="store_true",
                     dest="allow_shutdown",
                     help="honour the remote shutdown request")
    cache_dir_arg(sub)
    obs_args(sub)
    sub.set_defaults(handler=_cmd_serve)

    sub = commands.add_parser(
        "client", help="administer a running daemon")
    sub.add_argument("action", choices=("ping", "stats", "shutdown"),
                     help="ping: round-trip check; stats: dump the "
                          "daemon's metrics as JSON; shutdown: stop "
                          "it (needs --allow-shutdown server-side)")
    sub.add_argument("--server", metavar="HOST:PORT", required=True,
                     help="the daemon's endpoint")
    sub.add_argument("--timeout", type=float, default=30.0,
                     metavar="S", help="socket timeout in seconds")
    sub.set_defaults(handler=_cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader (e.g. `| head`) closed the pipe: exit quietly, and
        # detach stdout so the interpreter's final flush cannot raise
        import os
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # pragma: no cover - best effort
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
