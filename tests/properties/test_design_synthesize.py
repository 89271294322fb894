"""Property tests for the nested normalization pipeline.

Three families of randomized evidence back ``repro normalize``:

* **Round-trip soundness** — nesting a flat instance that satisfies
  Sigma by the winning plan yields a nested instance on which every
  carried NFD (and every structural NFD) holds, in the plain Section
  3.1 reading and with a fully-gated ``NonEmptySpec``.
* **Preservation honesty** — the report's ``preserved`` verdict equals
  a brute-force re-derivation: rebuild the enforced constraint set
  from the winner's :class:`~repro.design.PlanReport` (top-level
  placements, per-set local forms, structural NFDs) and ask one
  independent naive reference closure per carried dependency.
* **Sweep determinism** — ``sweep_normalize(..., jobs=2)`` renders
  byte-identically to the serial sweep, so CI gate numbers cannot
  depend on worker scheduling.

A deterministic seed sweep guarantees the advertised case count (the
acceptance bar is >= 200 randomized cases across the families)
independent of hypothesis profiles; a hypothesis wrapper adds
shrinking on failure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import DependencyPlacement, sweep_normalize, synthesize_design
from repro.generators import (
    random_design_sigma,
    random_flat_schema,
    random_satisfying_instance,
)
from repro.inference import NaiveClosure, NonEmptySpec
from repro.nfd import satisfies_all

ROUNDTRIP_SEEDS = 60
PRESERVATION_SEEDS = 60
GATED_PRESERVATION_SEEDS = 30
SWEEP_SEEDS = 5
SWEEP_SIZE = 6


def _draw(seed: int):
    rng = random.Random(seed)
    schema = random_flat_schema(rng, max_fields=5)
    sigma = random_design_sigma(rng, schema, fallback_count=4)
    return rng, schema, sigma


def _check_roundtrip(seed: int, gated: bool) -> None:
    rng, schema, sigma = _draw(seed)
    instance = random_satisfying_instance(rng, schema, sigma,
                                          tuples=3, domain=2)
    if instance is None:
        return  # generator gave up on this Sigma; seed still counts
    spec = NonEmptySpec.all_nonempty() if gated else None
    report = synthesize_design(schema, sigma, nonempty=spec,
                               instance=instance)
    assert report.roundtrip == "ok", \
        (seed, report.roundtrip, report.to_text())
    # the same fact, checked without going through _roundtrip: the
    # nested value satisfies every carried and structural NFD
    nested = report.plan.apply_instance(instance)
    assert satisfies_all(nested, report.plan_report.all_nfds()), \
        (seed, report.to_text())


def _brute_force_preserved(report) -> bool:
    """Re-derive the preservation verdict from first principles.

    The enforced set is what a per-set checker maintains: top-level
    carried NFDs verbatim, each deep placement's local form when one
    exists, and the structural NFDs nesting induces.  The design
    preserves Sigma iff that set implies every carried dependency —
    one fresh naive reference closure per query, sharing nothing with
    the session machinery under test.
    """
    plan_report = report.plan_report
    enforced = []
    for placement in plan_report.placements:
        if placement.kind == DependencyPlacement.TOP:
            enforced.append(placement.nfd)
        else:
            local = plan_report.local_form(placement)
            if local is not None:
                enforced.append(local)
    enforced.extend(plan_report.structural_nfds())
    return all(
        NaiveClosure(plan_report.schema, enforced).implies(nfd)
        for nfd in plan_report.nfds())


def _check_preservation(seed: int, gated: bool) -> None:
    _, schema, sigma = _draw(seed)
    spec = NonEmptySpec.all_nonempty() if gated else None
    for mode in ("session", "fresh"):
        report = synthesize_design(schema, sigma, nonempty=spec,
                                   mode=mode)
        assert report.preserved == _brute_force_preserved(report), \
            (seed, mode, report.to_text())


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(ROUNDTRIP_SEEDS))
    def test_plain(self, seed):
        _check_roundtrip(seed, gated=False)

    @pytest.mark.parametrize("seed",
                             range(ROUNDTRIP_SEEDS, 2 * ROUNDTRIP_SEEDS))
    def test_gated(self, seed):
        _check_roundtrip(seed, gated=True)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gated=st.booleans())
    def test_hypothesis(self, seed, gated):
        _check_roundtrip(seed, gated)


class TestPreservationVerdict:
    @pytest.mark.parametrize("seed", range(PRESERVATION_SEEDS))
    def test_plain(self, seed):
        _check_preservation(seed, gated=False)

    @pytest.mark.parametrize("seed",
                             range(GATED_PRESERVATION_SEEDS))
    def test_gated(self, seed):
        _check_preservation(seed, gated=True)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hypothesis(self, seed):
        _check_preservation(seed, gated=False)


class TestSweepDeterminism:
    @pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
    def test_jobs_two_matches_serial(self, seed):
        serial = sweep_normalize(SWEEP_SIZE, jobs=1, seed=seed)
        parallel = sweep_normalize(SWEEP_SIZE, jobs=2, seed=seed)
        assert serial.to_text() == parallel.to_text()
        assert serial.records == parallel.records

    def test_fresh_mode_matches_too(self):
        serial = sweep_normalize(SWEEP_SIZE, jobs=1, seed=1,
                                 mode="fresh")
        parallel = sweep_normalize(SWEEP_SIZE, jobs=2, seed=1,
                                   mode="fresh")
        assert serial.to_text() == parallel.to_text()
