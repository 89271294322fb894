"""Unit tests for closure-engine explanations."""

import random

import pytest

from repro.errors import InferenceError
from repro.generators import random_nfd, random_schema, random_sigma
from repro.generators import workloads
from repro.inference import ClosureEngine, Explanation
from repro.nfd import NFD


@pytest.fixture
def engine_3_1():
    return ClosureEngine(workloads.section_3_1_schema(),
                         workloads.section_3_1_sigma())


class TestExplain:
    def test_section_3_1_explanation(self, engine_3_1):
        text = engine_3_1.explain(NFD.parse("R:A:[B -> E]")).to_text()
        # the three rule families of the paper's proof all appear
        assert "singleton" in text
        assert "full-locality" in text
        assert "prefix rule" in text
        # both hypotheses are cited
        assert "R:[A:B:C, D -> A:E:F]" in text
        assert "R:A:[B -> E:G]" in text
        # the simple-form translation is surfaced for nested bases
        assert "push-in" in text

    def test_course_explanation_cites_the_chain(self):
        engine = ClosureEngine(workloads.course_schema(),
                               workloads.course_sigma())
        text = engine.explain(NFD.parse(
            "Course:[students:sid, time -> books]")).to_text()
        assert "Course:[cnum -> books]" in text
        assert "Course:[students:sid, time -> cnum]" in text
        assert "reflexivity" in text

    def test_reflexive_explanation(self, engine_3_1):
        text = engine_3_1.explain(NFD.parse("R:[D -> D]")).to_text()
        assert "reflexivity" in text

    def test_non_implied_raises(self, engine_3_1):
        with pytest.raises(InferenceError):
            engine_3_1.explain(NFD.parse("R:A:[E -> B]"))

    def test_explanations_exist_for_all_implied(self):
        """Every implied candidate over random inputs explains without
        error and mentions its RHS."""
        rng = random.Random(55)
        produced = 0
        for _ in range(25):
            schema = random_schema(rng, max_fields=3, max_depth=2,
                                   set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 3))
            engine = ClosureEngine(schema, sigma)
            for _ in range(4):
                candidate = random_nfd(rng, schema, max_lhs=2)
                if not engine.implies(candidate):
                    continue
                explanation = engine.explain(candidate)
                assert isinstance(explanation, Explanation)
                text = explanation.to_text()
                assert str(candidate) in text
                produced += 1
        assert produced > 5

    def test_str_matches_to_text(self, engine_3_1):
        explanation = engine_3_1.explain(NFD.parse("R:A:[B -> E]"))
        assert str(explanation) == explanation.to_text()


class TestProofsOnAServingEngine:
    """``explain`` and ``compile_proof`` pick the proof recorder by
    themselves: an engine that has already answered kernel queries —
    single closures, batches, mask-only key verdicts — justifies any
    implied NFD on request, and answers the same afterwards."""

    @pytest.mark.parametrize("gated", [False, True])
    def test_explain_and_prove_after_kernel_queries(self, gated):
        from repro.inference import NonEmptySpec, compile_proof
        from repro.paths import Path, relation_paths, set_paths

        rng = random.Random(71 if gated else 70)
        proved = 0
        for _ in range(25):
            schema = random_schema(rng, relations=1, max_fields=3,
                                   max_depth=2, set_probability=0.5)
            sigma = random_sigma(rng, schema, count=rng.randint(1, 4))
            relation = schema.relation_names[0]
            spec = None
            if gated:  # a partial declaration: some gates stay shut
                spec = NonEmptySpec(
                    {Path((relation,))} |
                    {Path((relation,)).concat(p)
                     for p in set_paths(schema, relation)
                     if rng.random() < 0.5})
            engine = ClosureEngine(schema, sigma, nonempty=spec)
            base = Path((relation,))
            paths = relation_paths(schema, relation)
            singles = [frozenset([p]) for p in paths]
            engine.closure_many([(base, lhs) for lhs in singles])
            engine.covers_many(base, singles, paths[:1])
            before = [engine.closure(base, lhs) for lhs in singles]
            for _ in range(4):
                candidate = random_nfd(rng, schema, max_lhs=2)
                if not engine.implies(candidate):
                    continue
                assert str(candidate) in engine.explain(candidate) \
                    .to_text()
                proof = compile_proof(engine, candidate)
                assert proof.conclusion() == candidate
                proved += 1
            assert [engine.closure(base, lhs) for lhs in singles] == \
                before
        assert proved > 5
