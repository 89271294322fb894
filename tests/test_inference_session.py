"""Unit tests for ImplicationSession and the Sigma fingerprint."""

import pytest

from repro.errors import InferenceError
from repro.generators import workloads
from repro.inference import (
    ClosureEngine,
    ImplicationSession,
    NonEmptySpec,
    sigma_fingerprint,
)
from repro.nfd import parse_nfd, parse_nfds
from repro.paths import parse_path
from repro.types import parse_schema


def _paths(*texts):
    return frozenset(parse_path(t) for t in texts)


@pytest.fixture
def course():
    return workloads.course_schema(), workloads.course_sigma()


class TestFingerprint:
    def test_member_order_does_not_matter(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, list(reversed(sigma)))

    def test_duplicate_members_collapse(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, sigma + [sigma[0]])

    def test_lhs_order_does_not_matter(self, course):
        schema, _ = course
        first = parse_nfd("Course:[time, students:sid -> cnum]")
        second = parse_nfd("Course:[students:sid, time -> cnum]")
        assert sigma_fingerprint(schema, [first]) == \
            sigma_fingerprint(schema, [second])

    def test_record_field_order_does_not_matter(self):
        first = parse_schema("R = {<a: string, b: int>}")
        second = parse_schema("R = {<b: int, a: string>}")
        sigma = parse_nfds("R:[a -> b]")
        assert sigma_fingerprint(first, sigma) == \
            sigma_fingerprint(second, sigma)

    def test_sigma_content_matters(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) != \
            sigma_fingerprint(schema, sigma[:-1])

    def test_nonempty_spec_matters(self, course):
        schema, sigma = course
        gated = NonEmptySpec({parse_path("Course")})
        assert sigma_fingerprint(schema, sigma) != \
            sigma_fingerprint(schema, sigma, gated)

    def test_all_nonempty_equals_default(self, course):
        schema, sigma = course
        assert sigma_fingerprint(schema, sigma) == \
            sigma_fingerprint(schema, sigma,
                              NonEmptySpec.all_nonempty())

    def test_session_exposes_fingerprint(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        assert session.fingerprint == sigma_fingerprint(schema, sigma)
        assert session.fingerprint == \
            ImplicationSession(schema,
                               list(reversed(sigma))).fingerprint


class TestMemo:
    def test_hits_and_misses(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        first = session.closure_simple("Course", _paths("cnum"))
        again = session.closure_simple("Course", _paths("cnum"))
        assert first == again
        stats = session.stats
        assert stats.queries == 2
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.hit_rate == 0.5

    def test_seed_reuse(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        session.closure_simple("Course", _paths("cnum"))
        seeded = session.closure_simple("Course", _paths("cnum", "time"))
        assert session.stats.seed_reuses == 1
        fresh = ClosureEngine(schema, sigma)
        assert seeded == fresh.closure_simple("Course",
                                              _paths("cnum", "time"))

    def test_eviction_is_bounded_lru(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma, max_memo=2)
        session.closure_simple("Course", _paths("cnum"))
        session.closure_simple("Course", _paths("time"))
        session.closure_simple("Course", _paths("books:isbn"))
        stats = session.stats
        assert stats.evictions == 1
        assert stats.memo_size == 2
        # the evicted (oldest) query misses again; the young ones hit
        session.closure_simple("Course", _paths("books:isbn"))
        assert session.stats.hits == 1
        session.closure_simple("Course", _paths("cnum"))
        assert session.stats.misses == 4

    def test_eviction_forgets_engine_state(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma, max_memo=1)
        session.closure_simple("Course", _paths("time"))
        session.closure_simple("Course", _paths("books:title"))
        assert session.stats.evictions == 1
        assert _paths("time") not in \
            session.engine._dense_states["Course"].acc

    def test_max_memo_must_be_positive(self, course):
        schema, sigma = course
        with pytest.raises(InferenceError):
            ImplicationSession(schema, sigma, max_memo=0)

    def test_implies_matches_engine(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        engine = ClosureEngine(schema, sigma)
        for text in ["Course:[cnum -> time]",
                     "Course:[time, students:sid -> books]",
                     "Course:students:[sid -> grade]",
                     "Course:[time -> cnum]"]:
            nfd = parse_nfd(text)
            assert session.implies(nfd) == engine.implies(nfd), text

    def test_stats_text(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        session.implies(parse_nfd("Course:[cnum -> time]"))
        text = session.stats.to_text()
        assert text.startswith("session stats (fingerprint ")
        assert "engine stats:" in text


class TestCopyOnWriteProbes:
    def test_without_drops_one_member(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        probe = session.without(0)
        assert list(probe.sigma) == sigma[1:]
        assert probe.engine._pool is session.engine._pool
        assert probe.fingerprint != session.fingerprint

    def test_with_added_appends(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        extra = parse_nfd("Course:[time -> cnum]")
        probe = session.with_added(extra)
        assert list(probe.sigma) == sigma + [extra]
        assert probe.engine._pool is session.engine._pool
        assert probe.implies(extra)

    def test_replaced_preserves_order(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        replacement = parse_nfd("Course:[cnum -> students]")
        probe = session.replaced(4, replacement)
        expected = list(sigma)
        expected[4] = replacement
        assert list(probe.sigma) == expected
        assert probe.engine._pool is session.engine._pool

    def test_probe_answers_match_fresh_engines(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        target = parse_nfd("Course:[time, students:sid -> books]")
        for index in range(len(sigma)):
            rest = sigma[:index] + sigma[index + 1:]
            assert session.without(index).implies(target) == \
                ClosureEngine(schema, rest).implies(target), index


class TestForgetQuery:
    def test_refuses_candidate_premise_keys(self, course):
        schema, sigma = course
        engine = ClosureEngine(schema, sigma)
        engine.closure_simple("Course", _paths("cnum"))
        premises = list(engine._pool.candidate_index["Course"])
        assert premises, "course sigma should carry singleton candidates"
        for key in premises:
            assert engine.forget_query("Course", key) is False

    def test_forgets_ordinary_queries(self, course):
        schema, sigma = course
        engine = ClosureEngine(schema, sigma)
        key = _paths("time")
        engine.closure_simple("Course", key)
        assert engine.forget_query("Course", key) is True
        assert engine.forget_query("Course", key) is False


class TestStrategyAndBatches:
    def test_closure_batch_matches_mapped_closure(self, course):
        schema, sigma = course
        base = parse_path("Course")
        queries = [(base, _paths("cnum")),
                   (base, _paths("cnum", "time")),
                   (base, _paths("books"))]
        batch = ImplicationSession(schema, sigma).closure_batch(queries)
        fresh = ImplicationSession(schema, sigma)
        assert batch == [fresh.closure(b, lhs) for b, lhs in queries]

    def test_covers_batch_matches_membership(self, course):
        schema, sigma = course
        base = parse_path("Course")
        candidates = [_paths("cnum"), _paths("time")]
        targets = _paths("time", "books")
        session = ImplicationSession(schema, sigma)
        fresh = ImplicationSession(schema, sigma)
        assert session.covers_batch(base, candidates, targets) == [
            targets <= fresh.closure(base, c) for c in candidates
        ]

    def test_implies_all_matches_per_member(self, course):
        schema, sigma = course
        session = ImplicationSession(schema, sigma)
        assert session.implies_all(sigma)
        bogus = parse_nfd("Course:[time -> cnum]")
        assert session.implies_all(list(sigma) + [bogus]) == \
            all(ImplicationSession(schema, sigma).implies(nfd)
                for nfd in list(sigma) + [bogus])

    def test_diff_mismatch_names_snapshot_misuse(self, course):
        schema, sigma = course
        mine = ImplicationSession(schema, sigma).snapshot()
        other = ImplicationSession(schema, sigma[:-1]).snapshot()
        with pytest.raises(InferenceError,
                           match=r"snapshot\(\) calls taken from the "
                                 r"\*same\* session"):
            mine.diff(other)
