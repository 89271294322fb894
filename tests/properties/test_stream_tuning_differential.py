"""Differential property tests: every StreamTuning is invisible.

The spill knobs — chunked pickle frames (``spill_chunk``) and the
plain spill codec (``spill_codec``) — are *performance* switches.
Neither may change a public result: for any tuning,
:func:`repro.nfd.stream_validate` must produce byte-identical witness
descriptions to the legacy (both-off) tuning and to the in-memory
engine, resident or spilling, and the worker summarize/absorb protocol
must merge to the same verdict.

Each hypothesis case draws one random schema/Σ/instance and runs the
full tuning matrix — chunked/unchunked frames crossed with the plain
and value codecs, the corners being the default and the legacy
configuration — so the default profile's 100 examples exercise well
over 200 tuned validations per suite run (the nightly profile
multiplies that by 10).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import random_instance, random_schema, random_sigma
from repro.io.stream import iter_set_elements
from repro.nfd import (
    ResourceBudget,
    StreamTuning,
    StreamValidator,
    ValidatorEngine,
    stream_validate,
)

#: The matrix one drawn case is run through: the legacy both-off
#: configuration, the default, and each knob switched off alone.
TUNINGS = [StreamTuning.legacy(), StreamTuning(),
           StreamTuning(spill_codec="value"), StreamTuning(spill_chunk=1)]


def _draw_case(seed: int):
    rng = random.Random(seed)
    schema = random_schema(rng, relations=1, max_fields=3, max_depth=2,
                           set_probability=0.5)
    sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
    instance = random_instance(rng, schema, tuples=rng.randint(2, 4),
                               domain=2, empty_probability=0.2)
    return schema, sigma, instance


def _sources(instance):
    return {name: iter_set_elements(value)
            for name, value in instance.relations()}


def _witnesses(result):
    return [v.describe() for v in result.violations]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_all_tunings_match_engine_resident(seed):
    """Unbudgeted: every tuning equals the in-memory engine exactly."""
    schema, sigma, instance = _draw_case(seed)
    expected = _witnesses(ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True))
    for tuning in TUNINGS:
        result = stream_validate(schema, sigma, _sources(instance),
                                 tuning=tuning)
        assert _witnesses(result) == expected, tuning
        assert result.ok == (not expected), tuning


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_all_tunings_match_engine_spilling(seed):
    """A 2-row budget forces spill/merge under every tuning; the
    witnesses, their order, and the residency cap must all hold."""
    schema, sigma, instance = _draw_case(seed)
    expected = _witnesses(ValidatorEngine(schema, sigma).validate(
        instance, all_violations=True))
    for tuning in TUNINGS:
        result = stream_validate(
            schema, sigma, _sources(instance),
            budget=ResourceBudget(max_resident_rows=2), tuning=tuning)
        assert _witnesses(result) == expected, tuning
        assert result.stats.peak_resident_rows <= 2, tuning


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_summaries_merge_identically(seed):
    """The worker summarize/absorb protocol is tuning-invariant: a
    spilling worker under any tuning, absorbed into a fresh driver,
    finalizes to the same witnesses as the legacy worker."""
    schema, sigma, instance = _draw_case(seed)
    if not sigma:
        return
    baseline = None
    for tuning in TUNINGS:
        worker = StreamValidator(
            schema, sigma,
            budget=ResourceBudget(max_resident_rows=2), tuning=tuning,
            shard_index=0)
        try:
            for name, value in instance.relations():
                worker.consume(name, iter_set_elements(value))
            summary = worker.summarize()
            driver = StreamValidator(schema, sigma)
            try:
                driver.absorb_summary(summary)
                # single-shard driver: renumbering offsets are zero
                triples = [(plan_index, (0, position), violation)
                           for plan_index, position, violation
                           in summary["nested"]]
                witnesses = _witnesses(driver.finalize(
                    nested=triples,
                    elements_seen=summary["elements_seen"],
                    exhausted=summary["exhausted"]))
            finally:
                driver.cleanup()
        finally:
            worker.cleanup()
        if baseline is None:
            baseline = witnesses
        else:
            assert witnesses == baseline, tuning


def test_matrix_is_at_least_the_promised_size():
    """100 hypothesis examples x len(TUNINGS) >= 200 tuned runs per
    suite, and the matrix really crosses chunking x codec."""
    assert len(TUNINGS) >= 4
    crossed = {(t.spill_chunk > 1, t.spill_codec) for t in TUNINGS}
    assert crossed == {(True, "plain"), (True, "value"),
                       (False, "plain"), (False, "value")}


@pytest.mark.parametrize("tuning", TUNINGS,
                         ids=lambda t: f"c{t.spill_chunk}-"
                                       f"{t.spill_codec}")
def test_stats_counters_are_consistent(tuning):
    """Whatever the tuning, the stats a run reports must describe the
    run: spills => rows spilled and runs written, and the residency
    cap holds."""
    schema, sigma, instance = _draw_case(4242)
    result = stream_validate(
        schema, sigma, _sources(instance),
        budget=ResourceBudget(max_resident_rows=2), tuning=tuning)
    stats = result.stats
    assert stats.peak_resident_rows <= 2
    if stats.spills:
        assert stats.rows_spilled > 0
        assert stats.runs_written >= 1
