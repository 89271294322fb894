"""Key discovery for nested relations.

The introduction's first constraint ("cnum is a key") is the conjunction
of one NFD per sibling attribute.  This module finds minimal keys — both
at the top level of a relation and locally inside any set-valued path —
by querying the closure engine, and offers the converse construction:
the NFDs declaring a chosen key.

The combination sweep is the library's heaviest query stream: adjacent
combinations share most of their members, so by default it runs through
an :class:`~repro.inference.session.ImplicationSession` (cross-query
memoization plus subset-closure seeding).  With ``jobs > 1`` each
size-level of the sweep fans out across worker processes via
:func:`repro.parallel.process_map`; results are deterministic because
same-size candidates can never prune one another (a key can only prune
strictly larger candidates), so the parallel sweep answers exactly the
serial questions, in order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..inference.closure import ClosureEngine
from ..inference.empty_sets import NonEmptySpec
from ..inference.session import ImplicationSession
from ..nfd.nfd import NFD
from ..paths.path import Path, parse_path
from ..paths.typing import resolve_base_path
from ..types.schema import Schema

__all__ = ["minimal_keys", "is_key", "key_nfds", "local_minimal_keys"]

def _closure_batch(working, queries):
    """Answer a batch of closure queries through the best API *working*
    offers: :meth:`ImplicationSession.closure_batch`, then
    :meth:`ClosureEngine.closure_many` (both subset-ordered and
    seed-sharing), then a plain per-query loop."""
    batch = getattr(working, "closure_batch", None) \
        or getattr(working, "closure_many", None)
    if batch is not None:
        return batch(queries)
    return [working.closure(base, lhs) for base, lhs in queries]


def _verdict_batch(working, base, candidates, labels):
    """One is-key verdict per candidate, through the best API *working*
    offers.  ``covers_batch``/``covers_many`` let the engine answer
    from saturated masks without materializing any closure; otherwise
    the closures are fetched batch-wise and membership-tested here."""
    targets = [Path((label,)) for label in labels]
    covers = getattr(working, "covers_batch", None) \
        or getattr(working, "covers_many", None)
    if covers is not None:
        return covers(base, candidates, targets)
    closures = _closure_batch(
        working, [(base, candidate) for candidate in candidates])
    return [all(target in closed for target in targets)
            for closed in closures]


def key_nfds(base: Path, key: Iterable[Path],
             scope_labels: Iterable[str]) -> list[NFD]:
    """The NFDs asserting that *key* is a key at *base*.

    One NFD per attribute of the scope: ``base:[key -> attribute]``.
    Attributes inside the key are skipped (they are trivial).
    """
    key_set = frozenset(key)
    result = []
    for label in scope_labels:
        rhs = Path((label,))
        if rhs in key_set:
            continue
        result.append(NFD(base, key_set, rhs))
    return result


def is_key(engine, base: Path, candidate: Iterable[Path]) -> bool:
    """Does *candidate* determine every top-level attribute at *base*?

    Determining all top-level attributes pins the whole element: deeper
    paths are reached through their top-level set, which is itself
    determined.  *engine* is a :class:`ClosureEngine` or an
    :class:`ImplicationSession` (anything with ``schema``/``closure``).
    """
    scope = resolve_base_path(engine.schema, base)
    closed = engine.closure(base, candidate)
    return all(Path((label,)) in closed for label in scope.labels)


def minimal_keys(schema: Schema, sigma: Iterable[NFD], relation: str,
                 engine=None, *, nonempty: NonEmptySpec | None = None,
                 jobs: int = 1,
                 cache_dir: str | None = None) -> list[frozenset[Path]]:
    """All minimal keys of *relation* over its top-level attributes.

    Exponential in attribute count (key discovery is NP-hard in general);
    practical for the schema sizes of the paper's setting.  *nonempty*
    selects the gated (Section 3.2) semantics; *jobs* fans the sweep out
    across processes, and *cache_dir* (parallel sweeps only — a shared
    *engine* carries its own store) lets each worker answer from the
    persistent closure memo, opened read-only once per process.
    """
    return local_minimal_keys(schema, sigma, Path((relation,)), engine,
                              nonempty=nonempty, jobs=jobs,
                              cache_dir=cache_dir)


def _keys_setup(payload):
    """Worker initializer: rebuild the session from pickle-safe texts,
    and pre-open the persistent cache store — read-only, once per
    process — so every probe in this worker answers warm closure
    queries from the memo instead of saturating.  The payload carries
    the driver's compiled :class:`~repro.inference.dense.DenseTables`,
    so workers adopt them instead of recompiling the interned universe
    per process."""
    from ..inference.closure import ClosureEngine
    from ..io.json_io import load_bundle
    from ..parallel import spec_from_payload

    bundle_text, spec_data, base_text, cache_dir, dense_tables = payload
    schema, sigma, _ = load_bundle(bundle_text)
    store = None
    if cache_dir is not None:
        from ..store.cache_store import CacheStore
        store = CacheStore(cache_dir, read_only=True)
    engine = ClosureEngine(schema, sigma, spec_from_payload(spec_data))
    engine._pool.adopt_dense(dense_tables.relation, dense_tables)
    session = ImplicationSession(schema, sigma, store=store,
                                 _engine=engine)
    return session, parse_path(base_text)


def _keys_probe(context, candidate_texts: tuple[str, ...]) -> bool:
    """Worker task: one is_key query against the per-process session."""
    session, base = context
    candidate = frozenset(parse_path(text) for text in candidate_texts)
    return is_key(session, base, candidate)


def local_minimal_keys(schema: Schema, sigma: Iterable[NFD], base: Path,
                       engine=None, *,
                       nonempty: NonEmptySpec | None = None,
                       jobs: int = 1,
                       cache_dir: str | None = None) \
        -> list[frozenset[Path]]:
    """Minimal keys at an arbitrary base path (local keys).

    For ``base = Course:students`` this answers "which attribute sets
    identify a student within one course" — e.g. ``{sid}`` under the
    constraint of Example 2.3.

    When *engine* is given (a :class:`ClosureEngine` or
    :class:`ImplicationSession`) its Sigma and nonempty spec are
    authoritative; otherwise a session over ``(schema, sigma,
    nonempty)`` is built.  Each size-level of the sweep is answered as one
    batch-closure call, so neighbouring candidates share their subset
    closures; with ``jobs > 1`` and no shared engine the level fans out
    across worker processes instead (one session per process, shipped
    the driver's compiled dense tables, results in candidate order).
    """
    sigma_list = list(sigma)
    working = engine if engine is not None \
        else ImplicationSession(schema, sigma_list, nonempty)
    scope = resolve_base_path(schema, base)
    attributes = [Path((label,)) for label in scope.labels]
    parallel = jobs > 1 and engine is None
    if parallel:
        from ..io.json_io import dump_bundle
        from ..parallel import process_map, spec_payload

        payload = (dump_bundle(schema, sigma_list),
                   spec_payload(nonempty), str(base), cache_dir,
                   working.engine._pool.dense(base.first))
    else:
        payload = None
    tracer = getattr(working, "tracer", None)
    if tracer is not None:
        with tracer.span("analysis.keys", base=str(base),
                         attributes=len(attributes), jobs=jobs) as span:
            return _sweep(working, base, scope.labels, attributes,
                          parallel, payload, jobs, span)
    return _sweep(working, base, scope.labels, attributes, parallel,
                  payload, jobs, None)


def _sweep(working, base, labels, attributes, parallel, payload, jobs,
           span):
    if parallel:
        from ..parallel import process_map
    keys: list[frozenset[Path]] = []
    for size in range(1, len(attributes) + 1):
        candidates = [
            frozenset(combo)
            for combo in combinations(attributes, size)
            if not any(key <= frozenset(combo) for key in keys)
        ]
        if not candidates:
            continue
        if span is not None:
            span.add("candidates", len(candidates))
        if parallel:
            texts = [tuple(str(p) for p in sorted(candidate))
                     for candidate in candidates]
            verdicts = process_map(_keys_setup, payload, _keys_probe,
                                   texts, jobs)
        else:
            verdicts = _verdict_batch(working, base, candidates, labels)
        for candidate, verdict in zip(candidates, verdicts):
            if verdict:
                keys.append(candidate)
                if span is not None:
                    span.add("keys")
    return sorted(keys, key=lambda key: (len(key), sorted(map(str, key))))
