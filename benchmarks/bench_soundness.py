"""E10 — Theorem 3.1, soundness half, as a measured sweep.

Over a seeded family of random schemas and NFD sets, every
engine-implied candidate must hold in every Sigma-satisfying random
instance.  The bench reports the sweep size and asserts zero violations;
the timing covers one full seeded sweep.
"""

import random

from repro.generators import (
    random_instance,
    random_nfd,
    random_schema,
    random_sigma,
)
from repro.inference import ClosureEngine
from repro.nfd import satisfies, satisfies_all

SEED = 31_415
TRIALS = 10
CANDIDATES_PER_TRIAL = 4
INSTANCES_PER_CANDIDATE = 20


def _sweep():
    rng = random.Random(SEED)
    implied_count = 0
    checked = 0
    failures = 0
    for _ in range(TRIALS):
        schema = random_schema(rng, relations=1, max_fields=3,
                               max_depth=2, set_probability=0.5)
        sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
        engine = ClosureEngine(schema, sigma)
        for _ in range(CANDIDATES_PER_TRIAL):
            candidate = random_nfd(rng, schema, max_lhs=2)
            if not engine.implies(candidate):
                continue
            implied_count += 1
            found = 0
            for _ in range(150):
                instance = random_instance(rng, schema, tuples=2,
                                           domain=2)
                if not satisfies_all(instance, sigma):
                    continue
                found += 1
                checked += 1
                if not satisfies(instance, candidate):
                    failures += 1
                if found >= INSTANCES_PER_CANDIDATE:
                    break
    return implied_count, checked, failures


def test_soundness_sweep(benchmark, report):
    implied_count, checked, failures = benchmark(_sweep)
    report(
        "soundness sweep (Theorem 3.1, soundness)",
        f"implied candidates exercised: {implied_count}\n"
        f"Sigma-satisfying instances checked: {checked}\n"
        f"violations of an implied NFD: {failures} (paper: 0)",
    )
    assert implied_count > 0
    assert checked > 0
    assert failures == 0
