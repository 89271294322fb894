"""In-process reference answers, computed once, that every output of
the program under test is checked against.

* stream-spill: :class:`ValidatorEngine` witnesses over the same
  elements.  The in-memory instance is a set, whose iteration order is
  not the file's, so the engine may name the two elements of a clash
  in the other order; witnesses are compared as (constraint,
  antecedent, unordered pair) triples.
* stream-append: a cold, full :func:`stream_validate` over the
  appended file; a resumed run must print the same witnesses, byte for
  byte.
* service lanes: :class:`ImplicationSession`, :func:`minimal_keys`,
  :class:`ValidatorEngine` and a serial :func:`sweep_normalize`.
"""

from __future__ import annotations

import json
import re


def violation_blocks(stdout: str) -> list[str]:
    """The violation witnesses of a ``check`` run's stdout, in order."""
    blocks = stdout.split("\n\n")
    return [block.strip("\n") for block in blocks
            if block.lstrip("\n").startswith("violation of ")]


_RHS = re.compile(r"^  but (.*) = (.*) in one binding and (.*) in another$")


def unordered(block: str) -> tuple:
    """A witness with its two bindings and two elements unordered."""
    lines = block.splitlines()
    match = _RHS.match(lines[2]) if len(lines) > 2 else None
    rhs = (match.group(1), tuple(sorted(match.group(2, 3)))) \
        if match else tuple(lines[2:3])
    elements = tuple(sorted(
        line.strip().removeprefix("elements:").removeprefix("vs").strip()
        for line in lines[3:]))
    return lines[0], lines[1], rhs, elements


def same_witnesses_unordered(got: list[str], want: list[str]) -> bool:
    return sorted(map(unordered, got)) == sorted(map(unordered, want))


class StreamReference:
    """Witnesses of one Course dump, from the in-memory engine."""

    def __init__(self, bundle: bytes, jsonl: bytes):
        from repro.io.json_io import instance_from_dict, load_bundle
        from repro.nfd import ValidatorEngine
        schema, sigma, _ = load_bundle(bundle.decode())
        rows = [json.loads(line) for line in jsonl.splitlines()]
        instance = instance_from_dict(schema, {"Course": rows})
        result = ValidatorEngine(schema, sigma).validate(
            instance, all_violations=True)
        self.blocks = [v.describe() for v in result.violations]


class ColdStreamReference:
    """Witnesses of a cold, full stream over a JSONL file."""

    def __init__(self, bundle: bytes, path: str):
        from repro.io import iter_jsonl_elements
        from repro.io.json_io import load_bundle
        from repro.nfd import stream_validate
        schema, sigma, _ = load_bundle(bundle.decode())
        result = stream_validate(schema, sigma, {
            "Course": iter_jsonl_elements(path, schema, "Course")})
        self.blocks = [v.describe() for v in result.violations]


class ServiceReference:
    """Answers for every Σ of the population, computed on first use and
    memoized (the daemon's default closure strategy is used)."""

    def __init__(self, schema_dict: dict, population, instances):
        from repro.io.json_io import nfds_from_list, schema_from_dict
        self.schema = schema_from_dict(schema_dict)
        self.sigmas = [nfds_from_list(texts) for texts in population]
        self.instances = instances
        self._sessions: dict = {}
        self._memo: dict = {}

    def session(self, k: int):
        from repro.inference import ImplicationSession
        if k not in self._sessions:
            self._sessions[k] = ImplicationSession(self.schema,
                                                   self.sigmas[k])
        return self._sessions[k]

    def _closure(self, k, base, paths) -> list[str]:
        from repro.paths.path import parse_path
        closed = self.session(k).closure(parse_path(base),
                                         {parse_path(p) for p in paths})
        return [str(p) for p in sorted(closed)]

    def answer(self, kind: str, k: int, params: dict):
        """The expected ``result`` payload fields of one request."""
        key = (kind, k, json.dumps(params, sort_keys=True))
        if key in self._memo:
            return self._memo[key]
        if kind == "implies":
            from repro.nfd.parser import parse_nfd
            value = self.session(k).implies(parse_nfd(params["nfd"]))
        elif kind == "closure":
            value = [self._closure(k, base, paths)
                     for base, paths in params["queries"]]
        elif kind == "keys":
            from repro.analysis import minimal_keys
            keys = minimal_keys(self.schema, self.sigmas[k],
                                params["relation"], engine=self.session(k))
            value = sorted(sorted(str(p) for p in key) for key in keys)
        else:
            from repro.io.json_io import instance_from_dict
            from repro.nfd import ValidatorEngine
            # the frame's sorted-key JSON fixes the record field order
            # that witnesses print in
            rows = json.loads(json.dumps(self.instances[params["instance"]],
                                         sort_keys=True))
            instance = instance_from_dict(self.schema, {"Enrol": rows})
            result = ValidatorEngine(self.schema, self.sigmas[k]).validate(
                instance, all_violations=True)
            value = [v.describe() for v in result.violations]
        self._memo[key] = value
        return value

    def reply_ok(self, request, response: dict | None) -> bool:
        """Whether a daemon reply carries the reference answer."""
        if not response or not response.get("ok"):
            return False
        result = response.get("result", {})
        want = self.answer(request.kind, request.sigma, request.params)
        if request.kind == "implies":
            return result.get("implied") is want
        if request.kind == "closure":
            return result.get("closures") == want
        if request.kind == "keys":
            return sorted(result.get("keys", [])) == want
        return (result.get("violations") == want
                and result.get("satisfied") is (not want))


def sweep_reference(count: int, seed: int) -> tuple[str, int]:
    """Expected stdout and exit code of ``normalize --sweep``."""
    from repro.design import sweep_normalize
    summary = sweep_normalize(count, jobs=1, seed=seed)
    return summary.to_text() + "\n", 0 if summary.ok(0.95) else 1
