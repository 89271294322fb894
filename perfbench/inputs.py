"""Seeded input generation for every workload.

Everything the program under test sees is made here from the workload
seed and nothing else: JSONL element dumps, bundle files, the Σ
population, the daemon request frames with their open-loop schedule,
and the fresh-process CLI script.  The generators use only the
standard library (``random.Random`` streams and ``json`` with sorted
keys and compact separators), so the same seed gives byte-identical
files on every run and at every commit of the program: a later change
to the program's own generators cannot move the benchmark's inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# -- the stream lanes: a Course relation ------------------------------------

COURSE_SCHEMA = {
    "Course": "{<cnum: string, time: int, "
              "students: {<sid: int, age: int, grade: string>}, "
              "books: {<isbn: int, title: string>}>}",
}

#: Σ of the stream lanes.  Three root-anchored NFDs carry cross-element
#: group state keyed per course (so the working set grows with the
#: element count); the nested one is checked inside each element.
COURSE_NFDS = [
    "Course:[cnum -> time]",
    "Course:[cnum, time -> books]",
    "Course:[books:isbn -> books:title]",
    "Course:[students:sid -> students:age]",
    "Course:students:[sid -> grade]",
]

_GRADES = "ABCDF"


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _course(rng: random.Random, index: int, time: int) -> dict:
    sids = rng.sample(range(1000), rng.randint(3, 5))
    isbns = rng.sample(range(500), rng.randint(1, 3))
    return {
        "cnum": f"c{index:07d}",
        "time": time,
        "students": [{"sid": s, "age": 18 + s % 40,
                      "grade": rng.choice(_GRADES)} for s in sids],
        "books": [{"isbn": b, "title": f"title-{b}"} for b in isbns],
    }


def course_elements(rng: random.Random, count: int, clashes: int,
                    first: int = 0) -> list[dict]:
    """*count* courses with distinct ``cnum`` keys plus *clashes* extra
    elements, each repeating an earlier element's ``cnum`` with another
    ``time`` (a cross-element violation of ``cnum -> time``), placed
    after the element it clashes with."""
    rows = [_course(rng, first + i, first + i) for i in range(count)]
    for k in range(clashes):
        j = rng.randrange(count)
        clash = dict(rows[j])
        clash["time"] = rows[j]["time"] + 10_000_000 + k
        rows.insert(rng.randrange(j + 1, len(rows) + 1), clash)
    return rows


def jsonl_bytes(rows: list[dict]) -> bytes:
    return "".join(_dumps(row) + "\n" for row in rows).encode()


def bundle_bytes(schema: dict, nfds: list[str],
                 instance: dict | None = None) -> bytes:
    payload = {"schema": schema, "nfds": nfds}
    if instance is not None:
        payload["instance"] = instance
    return _dumps(payload).encode()


@dataclass
class SpillInputs:
    """``check --stream FILE --max-rows R`` on a Course dump with at
    least ten times more distinct antecedent keys than R."""

    elements: int
    max_rows: int
    jsonl: bytes
    bundle: bytes


def spill_inputs(seed: int, elements: int, max_rows: int) -> SpillInputs:
    assert elements >= 10 * max_rows
    rng = random.Random(f"spill/{seed}")
    rows = course_elements(rng, elements, clashes=3)
    return SpillInputs(len(rows), max_rows, jsonl_bytes(rows),
                       bundle_bytes(COURSE_SCHEMA, COURSE_NFDS))


@dataclass
class AppendInputs:
    """A base dump checkpointed once, and ~1% of new lines appended to
    it before every resume; one appended line clashes with a base
    element."""

    base: bytes
    delta: bytes
    bundle: bytes


def append_inputs(seed: int, elements: int) -> AppendInputs:
    rng = random.Random(f"append/{seed}")
    base_rows = course_elements(rng, elements, clashes=2)
    delta_count = max(2, elements // 100)
    delta_rows = course_elements(rng, delta_count - 1, clashes=0,
                                 first=elements)
    victim = base_rows[rng.randrange(len(base_rows))]
    clash = dict(victim)
    clash["time"] = victim["time"] + 20_000_000
    delta_rows.insert(rng.randrange(len(delta_rows) + 1), clash)
    return AppendInputs(jsonl_bytes(base_rows), jsonl_bytes(delta_rows),
                        bundle_bytes(COURSE_SCHEMA, COURSE_NFDS))


# -- the service lanes: a Σ population over an Enrol relation ---------------

ENROL_SCHEMA = {
    "Enrol": "{<cnum: string, time: int, room: int, dept: string, "
             "prof: string, students: {<sid: int, age: int, "
             "grade: string>}, books: {<isbn: int, title: string>}>}",
}

#: Every member holds on :func:`enrol_elements` data by construction, so
#: a check answer's witnesses come only from the injected clash.
ENROL_CANDIDATES = [
    "Enrol:[cnum -> time]", "Enrol:[cnum -> room]",
    "Enrol:[cnum -> dept]", "Enrol:[cnum -> students]",
    "Enrol:[cnum -> books]", "Enrol:[time -> cnum]",
    "Enrol:[room, time -> cnum]", "Enrol:[dept -> prof]",
    "Enrol:[prof -> dept]", "Enrol:[time -> room]",
    "Enrol:[books:isbn -> books:title]",
    "Enrol:[students:sid -> students:age]",
    "Enrol:students:[sid -> grade]", "Enrol:students:[sid -> age]",
    "Enrol:[time, students:sid -> cnum]",
    "Enrol:[cnum, students:sid -> students:grade]",
]

ENROL_ATOMS = ["cnum", "time", "room", "dept", "prof"]
ENROL_LABELS = ENROL_ATOMS + ["students", "books"]
_DEPTS = ["cis", "math", "phys", "chem", "bio", "econ"]

#: The daemon pool's default bound (``repro serve --max-sessions``); the
#: population is twice as large so the hot head fits and the tail evicts.
POOL_DEFAULT = 32
POPULATION = 2 * POOL_DEFAULT

#: Request mix of the closed loop, as exact shares.  The open loop
#: carries the same queries without the checks, which have a schedule
#: of their own (CHECK_COUNT, CHECK_RATE).
MIX = (("implies", 0.50), ("closure", 0.25), ("keys", 0.225),
       ("check", 0.025))
QUERY_MIX = tuple((kind, share) for kind, share in MIX if kind != "check")

#: Elements per ``check`` instance, and distinct instances in rotation.
CHECK_ELEMENTS = 200
CHECK_INSTANCES = 6

#: Zipf exponent of the skewed Σ draw.
ZIPF_S = 1.1

#: The check schedule: ``check`` requests alone, one every
#: 1/CHECK_RATE seconds, so the check percentiles have CHECK_COUNT
#: samples a run.  Checks are kept out of the query open loop: a query
#: that arrives during a ~60 ms check waits for it, and the few that do
#: set the query tail, which then hangs on where the seed put a handful
#: of checks rather than on the daemon's query path.
CHECK_COUNT = 100
CHECK_RATE = 8.0


def enrol_elements(rng: random.Random, count: int) -> list[dict]:
    rows = []
    for i in range(count):
        dept = _DEPTS[i % len(_DEPTS)]
        sids = rng.sample(range(600), rng.randint(2, 4))
        isbns = rng.sample(range(300), rng.randint(1, 2))
        rows.append({
            "cnum": f"e{i:05d}", "time": i, "room": i % 37,
            "dept": dept, "prof": f"prof-{dept}",
            "students": [{"sid": s, "age": 18 + s % 40,
                          "grade": rng.choice(_GRADES)} for s in sids],
            "books": [{"isbn": b, "title": f"title-{b}"} for b in isbns],
        })
    victim = dict(rows[rng.randrange(count)])
    victim["time"] = victim["time"] + 100_000
    victim["room"] = victim["time"] % 37
    rows.append(victim)
    return rows


#: Members per Σ of the population.
SIGMA_SIZE = 8


def sigma_population(rng: random.Random) -> list[list[str]]:
    """POPULATION distinct Σ of SIGMA_SIZE candidates each, in a seeded
    order."""
    seen: set[frozenset[str]] = set()
    population = []
    while len(population) < POPULATION:
        sigma = rng.sample(ENROL_CANDIDATES, SIGMA_SIZE)
        if frozenset(sigma) in seen:
            continue
        seen.add(frozenset(sigma))
        population.append(sigma)
    return population


def _lhs(rng: random.Random) -> list[str]:
    return sorted(rng.sample(ENROL_ATOMS, rng.randint(1, 2)))


def implies_candidate(rng: random.Random) -> str:
    lhs = _lhs(rng)
    rhs = rng.choice([label for label in ENROL_LABELS
                      if label not in lhs])
    return f"Enrol:[{', '.join(lhs)} -> {rhs}]"


@dataclass
class Request:
    """One daemon request: its type, the Σ it names (an index into the
    population), its parameters, and its pre-encoded wire frame."""

    rid: int
    kind: str
    sigma: int
    params: dict
    frame: bytes
    due: float = 0.0


@dataclass
class ServiceInputs:
    population: list[list[str]]
    instances: list[list[dict]]
    warmup: list[Request]
    open_loop: list[Request]
    check_loop: list[Request]
    closed_loop: list[Request]
    cli_script: list["CliCall"] = field(default_factory=list)
    cli_bundles: dict[str, bytes] = field(default_factory=dict)


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


#: The mix holds exactly in every block of this many requests, so the
#: sample count of each kind, and any stretch of a schedule, does not
#: depend on the seed.
MIX_BLOCK = 40


def _kinds(rng: random.Random, count: int, mix) -> list[str]:
    block = [kind for kind, share in mix
             for _ in range(round(share * MIX_BLOCK))]
    kinds: list[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds += block
    return kinds[:count]


def _request(rng: random.Random, rid: int, kind: str, sigma_index: int,
             population, instances) -> Request:
    bundle = {"schema": ENROL_SCHEMA, "nfds": population[sigma_index]}
    if kind == "implies":
        params = {"nfd": implies_candidate(rng)}
    elif kind == "closure":
        params = {"queries": [["Enrol", _lhs(rng)] for _ in range(4)]}
    elif kind == "keys":
        params = {"relation": "Enrol"}
    else:
        # one instance per Σ, so a run's checks repeat (Σ, instance)
        # pairs as often as they repeat Σ
        which = sigma_index % len(instances)
        params = {"instance": which}
        bundle = dict(bundle, instance={"Enrol": instances[which]})
    wire = {"id": rid, "type": kind, "bundle": bundle}
    wire.update({k: v for k, v in params.items() if k != "instance"})
    return Request(rid, kind, sigma_index, params,
                   (_dumps(wire) + "\n").encode())


def _requests(rng, first_id, count, population, instances, weights,
              mix=MIX):
    order = list(range(len(population)))
    return [_request(rng, first_id + i, kind,
                     rng.choices(order, weights)[0], population,
                     instances)
            for i, kind in enumerate(_kinds(rng, count, mix))]


def service_inputs(seed: int, rate: float, open_seconds: float,
                   closed_count: int) -> ServiceInputs:
    """The Σ population, the check instances, a warm-up pass, the
    open-loop schedule (Poisson arrivals at *rate* per second for
    *open_seconds*), the check schedule and the closed-loop request
    list."""
    rng = random.Random(f"service/{seed}")
    population = sigma_population(rng)
    instances = [enrol_elements(rng, CHECK_ELEMENTS)
                 for _ in range(CHECK_INSTANCES)]
    weights = _zipf_weights(len(population))
    # warm-up: one implies per Σ (the pool fills and starts evicting),
    # then a few checks and keys
    warmup = [_request(rng, 1_000_000 + k, "implies", k, population,
                       instances) for k in range(len(population))]
    warmup += [_request(rng, 1_000_100 + i, kind, i, population,
                        instances)
               for i, kind in enumerate(["check"] * 3 + ["keys"] * 2)]
    # queries arrive as a Poisson stream, checks on an even grid
    open_loop = _requests(rng, 0, round(rate * open_seconds), population,
                          instances, weights, QUERY_MIX)
    due = 0.0
    for request in open_loop:
        request.due = due
        due += rng.expovariate(rate)
    order = list(range(len(population)))
    check_loop = [_request(rng, 3_000_000 + i, "check",
                           rng.choices(order, weights)[0], population,
                           instances) for i in range(CHECK_COUNT)]
    for i, request in enumerate(check_loop):
        request.due = i / CHECK_RATE
    closed = _requests(rng, 2_000_000, closed_count, population,
                       instances, weights)
    inputs = ServiceInputs(population, instances, warmup, open_loop,
                           check_loop, closed)
    inputs.cli_script, inputs.cli_bundles = cli_script(rng, population)
    return inputs


# -- the CLI lane: a fixed script of fresh processes ------------------------

@dataclass
class CliCall:
    """One fresh ``repro`` process of the script.  ``bundle`` names a
    key of the bundle files; ``warm`` calls share one ``--cache-dir``
    that set-up has already warmed."""

    kind: str
    bundle: str | None
    args: list[str]
    warm: bool = False


#: Generated schemas per ``normalize --sweep`` call.
SWEEP_COUNT = 24


def cli_script(rng: random.Random, population) -> tuple[list[CliCall],
                                                         dict[str, bytes]]:
    picks = rng.sample(range(len(population)), 4)
    bundles = {f"sigma{k}": bundle_bytes(ENROL_SCHEMA, population[k])
               for k in picks}
    names = list(bundles)
    calls = []
    for i, name in enumerate(names):
        calls.append(CliCall("implies", name, [implies_candidate(rng)],
                             warm=i % 2 == 0))
    for i, name in enumerate(names):
        calls.append(CliCall("closure", name, ["Enrol", *_lhs(rng)],
                             warm=i % 2 == 1))
    calls.append(CliCall("keys", names[0], ["Enrol", "--jobs", "2"]))
    calls.append(CliCall("normalize", None,
                         ["--sweep", str(SWEEP_COUNT), "--jobs", "2",
                          "--seed", str(rng.randrange(1 << 16))]))
    return calls, bundles


def fingerprint(seed: int, roles) -> bytes:
    """Every generated input of one run, concatenated (for the
    byte-identity self-test)."""
    parts = []
    spill = spill_inputs(seed, **roles["spill"])
    parts += [spill.jsonl, spill.bundle]
    append = append_inputs(seed, **roles["append"])
    parts += [append.base, append.delta, append.bundle]
    service = service_inputs(seed, **roles["service"])
    for request in (service.warmup + service.open_loop
                    + service.check_loop + service.closed_loop):
        parts.append(request.frame)
        parts.append(repr(request.due).encode())
    for call in service.cli_script:
        parts.append(_dumps([call.kind, call.bundle, call.args,
                             call.warm]).encode())
    parts += [service.cli_bundles[name]
              for name in sorted(service.cli_bundles)]
    return b"".join(parts)
