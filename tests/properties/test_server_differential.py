"""Differential tests: the daemon vs in-process engines.

One live daemon — a real ``repro serve`` subprocess on an ephemeral
port, spawned once per test session — answers ``implies``, ``closure``,
``keys``, and ``check`` queries, and every answer must be byte-identical
to what the in-process :class:`~repro.inference.ImplicationSession`,
:func:`~repro.analysis.minimal_keys`, and
:class:`~repro.nfd.batch_validate.ValidatorEngine` produce for the same
bundle.  The wire protocol, the bundle round-trip, the engine pool, the
closure batcher, and the deadline-bearing stream path may change *how*
an answer is computed, never *what* it is.

A deterministic seed sweep guarantees the advertised case count: 60
seeds x 2 modes (plain / NON-NULL-gated Sigma) x 2 legacy ``strategy``
wire fields (worklist / dense — protocol v1 clients still send one; the
daemon validates and ignores it) = 240 randomized cases, clearing the
>= 200 bar.  A hypothesis wrapper adds shrinking on failure.
"""

import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import minimal_keys
from repro.generators import (random_instance, random_nfd, random_schema,
                              random_sigma)
from repro.inference import ImplicationSession, NonEmptySpec
from repro.io.json_io import dump_bundle
from repro.nfd.batch_validate import ValidatorEngine
from repro.paths import Path, relation_paths, set_paths
from repro.server import ReproClient

SEEDS_PER_MODE = 60
#: Legacy ``strategy`` wire fields the queries carry.
STRATEGIES = ("worklist", "dense")
REPO_ROOT = FsPath(__file__).resolve().parents[2]

READY_RE = re.compile(
    r"repro daemon listening on (?P<host>[^:]+):(?P<port>\d+)")


# ------------------------------------------------------------- the daemon


@pytest.fixture(scope="session")
def daemon():
    """One live ``repro serve`` subprocess for the whole session.

    The daemon binds an ephemeral port (``--port 0``); the fixture
    parses the readiness line for the real endpoint and terminates the
    process (SIGTERM -> clean signal-driven stop) at session end.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(REPO_ROOT))

    endpoint: dict = {}

    def wait_ready():
        line = proc.stdout.readline()
        match = READY_RE.search(line)
        if match:
            endpoint["host"] = match.group("host")
            endpoint["port"] = int(match.group("port"))

    waiter = threading.Thread(target=wait_ready, daemon=True)
    waiter.start()
    waiter.join(timeout=30.0)
    if "port" not in endpoint:
        proc.kill()
        proc.wait(timeout=10.0)
        pytest.fail("daemon did not print its readiness line in time")
    try:
        yield endpoint["host"], endpoint["port"]
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - watchdog
            proc.kill()
            proc.wait(timeout=10.0)


@pytest.fixture(scope="session")
def client(daemon):
    host, port = daemon
    with ReproClient(host, port, timeout=60.0) as c:
        yield c


# ------------------------------------------------------------- case drawing


def _draw(seed: int, gated: bool):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 4), max_lhs=2)
    relation = schema.relation_names[0]
    spec = _partial_spec(rng, schema, relation) if gated else None
    instance = random_instance(rng, schema, tuples=rng.randint(1, 3),
                               empty_probability=0.2)
    bundle = json.loads(dump_bundle(schema, sigma, instance,
                                    nonempty=spec))
    return rng, schema, sigma, relation, spec, instance, bundle


def _partial_spec(rng: random.Random, schema, relation: str) \
        -> NonEmptySpec:
    declared = {Path((relation,))}
    for p in set_paths(schema, relation):
        if rng.random() < 0.5:
            declared.add(Path((relation,)).concat(p))
    return NonEmptySpec(declared)


# ------------------------------------------------------------- the checks


def _check_agreement(client: ReproClient, seed: int, gated: bool,
                     strategy: str) -> None:
    rng, schema, sigma, relation, spec, instance, bundle = \
        _draw(seed, gated)
    session = ImplicationSession(schema, sigma, spec)
    paths = relation_paths(schema, relation)

    def ask(kind: str, **params) -> dict:
        return client.request(kind, bundle=bundle, strategy=strategy,
                              **params)
    base = Path((relation,))

    # implies: random candidates plus every member of Sigma itself
    # (members are always implied -- an asymmetric sanity anchor)
    candidates = [random_nfd(rng, schema) for _ in range(3)]
    candidates.extend(sigma)
    for candidate in candidates:
        remote = ask("implies", nfd=str(candidate))["implied"]
        assert remote == session.implies(candidate), \
            (seed, gated, strategy, str(candidate))

    # closure: single queries render exactly the session's answer in
    # the CLI's Path-tuple sort order
    queries = []
    for _ in range(3):
        lhs = rng.sample(paths, min(len(paths), rng.randint(0, 2)))
        queries.append((base, frozenset(lhs)))
    for q_base, q_lhs in queries:
        remote = ask("closure", base=str(q_base),
                     paths=[str(p) for p in q_lhs])["closure"]
        local = [str(p) for p in sorted(session.closure(q_base, q_lhs))]
        assert remote == local, (seed, gated, strategy, q_lhs)

    # closure: the pipelined "queries" form answers like the singles
    remote_many = ask("closure", queries=[
        [str(q_base), [str(p) for p in q_lhs]]
        for q_base, q_lhs in queries])["closures"]
    local_many = [[str(p) for p in sorted(session.closure(q_base, q_lhs))]
                  for q_base, q_lhs in queries]
    assert remote_many == local_many, (seed, gated, strategy)

    # keys: same relation, same rendering
    remote_keys = ask("keys", relation=relation)
    local_keys = minimal_keys(schema, sigma, relation, engine=session,
                              nonempty=spec)
    assert remote_keys["relation"] == relation
    assert remote_keys["keys"] == \
        [sorted(str(p) for p in key) for key in local_keys], \
        (seed, gated, strategy)

    # check: the warm (compiled-validator) path
    engine = ValidatorEngine(schema, sigma)
    local_result = engine.validate(instance, all_violations=True)
    remote_check = client.check(bundle)
    assert remote_check["satisfied"] == (not local_result.violations), \
        (seed, gated, strategy)
    assert remote_check["violations"] == \
        [v.describe() for v in local_result.violations], \
        (seed, gated, strategy)

    # check with a (generous) deadline rides the stream engine; the
    # verdict and witnesses must not change with the machinery
    remote_stream = client.check(bundle, deadline=3600.0)
    assert remote_stream["satisfied"] == remote_check["satisfied"], \
        (seed, gated, strategy)
    assert remote_stream["violations"] == remote_check["violations"], \
        (seed, gated, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_daemon_equals_in_process_plain(client, seed, strategy):
    _check_agreement(client, seed, gated=False, strategy=strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
def test_daemon_equals_in_process_gated(client, seed, strategy):
    _check_agreement(client, seed, gated=True, strategy=strategy)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans(),
       st.sampled_from(STRATEGIES))
def test_daemon_equals_in_process_hypothesis(client, seed, gated,
                                             strategy):
    """Shrinkable variant of the seed sweep above."""
    _check_agreement(client, seed, gated, strategy)
