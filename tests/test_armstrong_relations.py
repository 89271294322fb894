"""Tests for closed-set enumeration and Armstrong relations."""

import random
from itertools import combinations

import pytest

from repro.errors import InferenceError
from repro.inference import FD, ClosureEngine, fd_implies, fd_to_nfd
from repro.inference.armstrong import armstrong_relation, closed_sets
from repro.nfd import satisfies
from repro.types import parse_schema
from repro.values import Instance


class TestClosedSets:
    def test_no_fds_all_sets_closed(self):
        family = closed_sets(["A", "B"], [])
        assert frozenset() in family
        assert frozenset({"A"}) in family
        assert frozenset({"A", "B"}) in family
        assert len(family) == 4

    def test_fd_collapses_sets(self):
        family = closed_sets(["A", "B"], [FD({"A"}, "B")])
        assert frozenset({"A"}) not in family  # A+ = AB
        assert frozenset({"A", "B"}) in family
        assert frozenset({"B"}) in family

    def test_intersection_closed(self):
        rng = random.Random(1)
        attrs = ["A", "B", "C", "D"]
        for _ in range(10):
            fds = [FD(set(rng.sample(attrs, rng.randint(1, 2))),
                      rng.choice(attrs))
                   for _ in range(rng.randint(1, 4))]
            family = set(closed_sets(attrs, fds))
            for first in family:
                for second in family:
                    assert first & second in family, (fds, first, second)

    def test_size_guard(self):
        attrs = [f"A{i}" for i in range(15)]
        with pytest.raises(InferenceError):
            closed_sets(attrs, [])


class TestArmstrongRelation:
    ATTRS = ["A", "B", "C", "D"]

    def _satisfies(self, rows, lhs, rhs):
        groups = {}
        for row in rows:
            key = tuple(row[a] for a in sorted(lhs))
            if key in groups and groups[key] != row[rhs]:
                return False
            groups.setdefault(key, row[rhs])
        return True

    def test_exactness_exhaustive(self):
        rng = random.Random(2)
        for _ in range(25):
            fds = [FD(set(rng.sample(self.ATTRS, rng.randint(1, 2))),
                      rng.choice(self.ATTRS))
                   for _ in range(rng.randint(0, 4))]
            rows = armstrong_relation(self.ATTRS, fds)
            for size in range(1, 3):
                for combo in combinations(self.ATTRS, size):
                    for rhs in self.ATTRS:
                        if rhs in combo:
                            continue
                        assert self._satisfies(rows, set(combo), rhs) == \
                            fd_implies(fds, FD(set(combo), rhs)), \
                            (fds, combo, rhs)

    def test_agrees_with_nfd_semantics(self):
        """The Armstrong relation, viewed as a nested instance, behaves
        identically under the NFD satisfaction checker."""
        fds = [FD({"A"}, "B"), FD({"B", "C"}, "D")]
        rows = armstrong_relation(self.ATTRS, fds)
        schema = parse_schema("R = {<A, B, C, D>}")
        instance = Instance(schema, {"R": rows})
        engine = ClosureEngine(schema, [fd_to_nfd("R", fd)
                                        for fd in fds])
        for size in range(1, 3):
            for combo in combinations(self.ATTRS, size):
                for rhs in self.ATTRS:
                    if rhs in combo:
                        continue
                    nfd = fd_to_nfd("R", FD(set(combo), rhs))
                    assert satisfies(instance, nfd) == \
                        engine.implies(nfd), nfd

    def test_anchor_row_is_zero(self):
        rows = armstrong_relation(["A", "B"], [])
        assert rows[0] == {"A": 0, "B": 0}
