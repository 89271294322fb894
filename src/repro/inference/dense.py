"""The dense bitset closure kernel: the engine's one query path.

Every closure, implication, key and cover query of
:class:`~repro.inference.closure.ClosureEngine` runs here.  Saturating
over an object graph — frozensets of :class:`~repro.paths.path.Path`,
trigger dictionaries keyed by paths, per-delta hashing — is what the
engine's proof-recording worklist still does (it has to: proofs name
the path objects), but for query streams that object traffic dominates
the wall clock.  This module compiles the rule system down to flat
integers:

* **interning** — the universe of one relation is the prefix-closed set
  ``Paths_SC(R)`` of its well-typed paths (every closure, every query
  key, and every coverage prefix lives inside it), sorted once into a
  contiguous id space, so a set of paths becomes one Python int with
  bit *i* standing for path ``paths[i]``;
* **rule rows** — each usable NFD ``[M -> r]`` flattens to
  ``(rhs_bit, ((uncond_mask, keyonly_mask), ...))`` with one mask pair
  per LHS member: ``uncond_mask`` holds the member and every admissible
  prefix-rule shortening that passes the Section 3.2 transitivity gate
  *unconditionally* (plain mode, or the path follows ``r``, or it is
  always defined), while ``keyonly_mask`` holds the shortenings that
  are admissible only by being part of the query key.  The coverage
  test of the object-level step rule — "some admissible covering path
  is in the closure" — becomes ``acc & uncond`` (the key is a subset of every
  closure, so a nonzero ``keyonly & key_mask`` is decided per query,
  before the hot loop);
* **gated-coverage compilation** — the chain condition of the gated
  prefix rule (shortening to ``member[:k]`` requires every
  ``member[:j]``, ``k <= j < len(member)``, declared non-empty) is a
  static property of ``(member, nonempty)``, so the compiler simply
  stops emitting shortenings at the first undeclared position, and
  prefixes of ``r`` are never emitted — exactly the candidates the
  object-level ``_coverage`` considers, bit for bit.

Saturation is then a fixpoint of ``if acc & rhs_bit: skip; elif all
masks intersect acc: acc |= rhs_bit`` — no hashing, no frozensets, no
Path objects in the loop.  The tables depend only on ``(schema, Sigma
member, nonempty)``; they are compiled once per relation into the
shared Sigma pool, reused by every copy-on-write probe (rows are
tagged by pool member index, exactly like the object-level usables),
and pickle cleanly so parallel key sweeps ship them to workers instead
of recompiling per process.

This module is deliberately **zero-dependency**: the bitmask path must
import (and run) without numpy — a columnar numpy variant can layer on
top later, but the portable kernel never requires it.
"""

from __future__ import annotations

from itertools import compress

from ..paths.path import Path
from .empty_sets import NonEmptySpec

__all__ = ["DenseTables", "compile_tables", "compile_row", "mask_of",
           "mask_paths"]

#: One flattened rule:
#: ``(rhs_bit, members, union_mask, default_masks)`` where *members*
#: is ``((uncond_mask, keyonly_mask), ...)``, *union_mask* ORs every
#: member's masks (does the query key touch this row at all?), and
#: *default_masks* is the shared pre-specialized ``[uncond, ...]`` list
#: for keys that don't — or ``None`` when some member has no
#: unconditional option (such a row can only fire through the key).
Row = tuple


def mask_of(ids: dict[Path, int], paths) -> int:
    """The bitmask of a path collection under the interning *ids*."""
    mask = 0
    for path in paths:
        mask |= 1 << ids[path]
    return mask


#: ``bin()`` digits to selector bytes: ``"0"`` -> 0, ``"1"`` -> 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_paths(paths: tuple[Path, ...], mask: int) -> frozenset[Path]:
    """The paths whose bits are set in *mask* (bit *i* is ``paths[i]``).

    Reads the mask's binary digits least-significant first as a
    selector for :func:`itertools.compress`, so the whole walk runs in
    C — materializing a closure is a per-query cost of every caller
    that wants paths back rather than a verdict."""
    selector = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return frozenset(compress(paths, selector))


def compile_row(ids: dict[Path, int], relation: str, lhs, rhs: Path,
                nonempty: NonEmptySpec) -> Row:
    """Flatten one usable NFD ``[lhs -> rhs]`` into a dense row.

    Per LHS member the compiler enumerates every covering path the
    object-level ``_coverage`` would consider — the member itself
    plus prefix-rule shortenings, stopping at the first position not
    declared non-empty (gated mode) and skipping prefixes of *rhs* —
    and splits them by how they pass the Section 3.2 transitivity
    gate: unconditionally, or only by membership in the query key.
    """
    gated = not nonempty.declares_everything
    members = []
    for member in sorted(lhs):
        uncond = 0
        keyonly = 0
        if not gated or member.follows(rhs) or \
                nonempty.always_defined(relation, member):
            uncond |= 1 << ids[member]
        else:
            keyonly |= 1 << ids[member]
        for k in range(len(member) - 1, 0, -1):
            shortened = member[:k]
            if gated and not nonempty.is_declared(relation, shortened):
                # shortening past this position is gated off, and every
                # shorter prefix would have to shorten through it
                break
            if shortened.is_prefix_of(rhs):
                continue
            if not gated or shortened.follows(rhs) or \
                    nonempty.always_defined(relation, shortened):
                uncond |= 1 << ids[shortened]
            else:
                keyonly |= 1 << ids[shortened]
        members.append((uncond, keyonly))
    union = 0
    default: list[int] | None = []
    for uncond, keyonly in members:
        union |= uncond | keyonly
        if default is not None:
            if uncond:
                default.append(uncond)
            else:
                default = None
    return (1 << ids[rhs], tuple(members), union, default)


class DenseTables:
    """The compiled dense tables of one relation (pickle-safe).

    * ``paths`` / ``ids`` — the interned universe: ``paths[i]`` is the
      path with id ``i``, ``ids`` its inverse;
    * ``member_rows[i]`` — the rows compiled from Sigma member ``i``'s
      usables (its simple form plus localized variants), parallel to
      the pool's ``member_usables`` so copy-on-write probes mask
      members by index;
    * ``candidates`` — one entry per singleton candidate, in pool
      order: ``(premise_lhs, target_mask, rows, key)`` where *rows*
      are the candidate's usable and its localized variants, added to
      the active set when the premise closure covers *target_mask*.
    """

    __slots__ = ("relation", "paths", "ids", "member_rows", "candidates")

    def __init__(self, relation: str, paths: tuple[Path, ...],
                 member_rows: tuple[tuple[Row, ...], ...],
                 candidates: tuple[tuple, ...]):
        self.relation = relation
        self.paths = paths
        self.ids = {path: index for index, path in enumerate(paths)}
        self.member_rows = member_rows
        self.candidates = candidates

    def __getstate__(self):
        # ids is derived from paths; rebuild it on load
        return (self.relation, self.paths, self.member_rows,
                self.candidates)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:
        rows = sum(len(per) for per in self.member_rows)
        return (f"DenseTables({self.relation!r}, {len(self.paths)} "
                f"path id(s), {rows} row(s), "
                f"{len(self.candidates)} candidate(s))")


def compile_tables(pool, relation: str) -> DenseTables:
    """Compile one relation's dense tables from a compiled Sigma pool.

    Depends only on ``(schema, Sigma members, nonempty)``, never on an
    engine's active-member set: rows stay tagged by pool member index
    and the engine concatenates the active ones, so one compilation
    serves every copy-on-write probe of the pool.
    """
    from .closure import _localizations

    nonempty = pool.nonempty
    paths = tuple(sorted(pool.paths[relation]))
    ids = {path: index for index, path in enumerate(paths)}
    member_rows: list[list[Row]] = [[] for _ in pool.member_usables]
    for index, usable in pool.by_relation.get(relation, ()):
        member_rows[index].append(
            compile_row(ids, relation, usable.lhs, usable.rhs, nonempty))
    candidates = []
    for candidate in pool.candidates[relation]:
        usable = candidate.usable
        seen = {usable.key()}
        rows = [compile_row(ids, relation, usable.lhs, usable.rhs,
                            nonempty)]
        for variant in _localizations(relation, usable, nonempty):
            if variant.key() in seen:
                continue
            seen.add(variant.key())
            rows.append(compile_row(ids, relation, variant.lhs,
                                    variant.rhs, nonempty))
        candidates.append((candidate.premise_lhs,
                           mask_of(ids, candidate.targets),
                           tuple(rows), candidate.key()))
    return DenseTables(relation, paths,
                       tuple(tuple(per) for per in member_rows),
                       tuple(candidates))
