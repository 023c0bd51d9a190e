"""Coset geometry in finite powers of a group: the five-way coset
characterization, equal-or-disjoint partition tests, fiber structure of
cosets under coordinate projections, and coset detection for set families.

Members of G^n are tuples of element labels with componentwise product;
the tests run on them as index tuples, over the group's own integer table.
The "infinitesimal" sets these tests shadow are infinitary; here a family
member is just a finite set, so the analogy should not be over-read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from operator import getitem, itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EmptySet, NotACoset, TheoremViolation, UnknownElement
from .groups import GroupTable

GTuple = tuple[str, ...]
ITuple = tuple[int, ...]  # a member of G^n as element indices
_Table = Sequence[Sequence[int]]  # _rows[a][b] = _cols[b][a]: the index of a.b


@dataclass(frozen=True)
class AmbientGroup:
    """G^n with componentwise product, for subsets to live in. The tables
    are its group's own; only `_cols`, the transpose of `_rows`, is built."""

    group: GroupTable
    power: int
    _index: Mapping[str, int] = field(repr=False, compare=False)

    def __init__(self, group: GroupTable, power: int = 1):
        if power < 1:
            raise ValueError("power must be at least 1")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "_index", group._index)
        object.__setattr__(self, "_rows", group._rows)
        object.__setattr__(self, "_cols", tuple(zip(*group._rows)))
        object.__setattr__(self, "_inv", group._inv)

    def tuple_key(self, a: GTuple) -> tuple[int, ...]:
        """Lexicographic sort key, ordering components by element index."""
        return tuple(self._index[x] for x in a)

    def check_member(self, a: GTuple) -> GTuple:
        return self._decode(self._encode(a))

    def _encode(self, a: GTuple) -> ITuple:
        a = tuple(str(x) for x in a)
        if len(a) != self.power:
            raise UnknownElement(f"{a!r} does not have {self.power} components")
        for x in a:
            if x not in self._index:
                raise UnknownElement(f"{x!r} is not a group element")
        return tuple(self._index[x] for x in a)

    def _decode(self, a: Iterable[int]) -> GTuple:
        return tuple(self.group.elements[i] for i in a)


@dataclass(frozen=True)
class CosetReport:
    """The five verdicts of the coset characterization, which provably
    coincide, plus witnessing data when they hold."""

    left_translates_partition: bool
    right_translates_partition: bool
    left_coset: bool
    right_coset: bool
    xyz_closed: bool
    subgroup: Optional[frozenset[GTuple]]
    translator: Optional[GTuple]

    @property
    def is_coset(self) -> bool:
        return self.left_coset

    def verdicts(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.left_translates_partition,
            self.right_translates_partition,
            self.left_coset,
            self.right_coset,
            self.xyz_closed,
        )


def _columns(amb: AmbientGroup, xl: Sequence[ITuple], table: _Table) -> list[list[ITuple]]:
    """cols[c][v]: the c-th coordinates of v.X (table amb._rows) or of X.v
    (table amb._cols), one per member of xl, in xl's order."""
    cols = []
    for c in range(amb.power):
        at = [x[c] for x in xl]
        pick = itemgetter(*at) if len(at) > 1 else lambda row, i=at[0]: (row[i],)
        cols.append([pick(row) for row in table])
    return cols


def _translate(cols: list[list[ITuple]], g: Sequence[int]) -> Iterator[ITuple]:
    """The members of g.X (or X.g) from the columns of X."""
    return zip(*map(getitem, cols, g))


def _translates_partition(amb: AmbientGroup, xl: Sequence[ITuple], table: _Table) -> bool:
    """Whether the translates of X by all of G^n are equal or disjoint: the
    distinct ones are disjoint iff their sizes add up to their union's."""
    seen = {frozenset(zip(*t)) for t in iproduct(*_columns(amb, xl, table))}
    return len(frozenset().union(*seen)) == len(xl) * len(seen)


def _coset(
    amb: AmbientGroup, xs: Collection[ITuple], table: _Table
) -> Optional[tuple[frozenset[GTuple], GTuple]]:
    """(H, a), decoded, when H = a^-1.X is a subgroup for the least member a
    of X, else None; with table amb._cols, H = X.a^-1 and right cosets are
    decided. A coset is a coset of one subgroup through each of its
    members, so the least member decides. H holds a^-1.a, the identity, and
    is closed when h.H = (h.a^-1).X lies in H for each h in H (for right
    cosets H.h = X.(a^-1.h))."""
    xl = list(xs)
    cols = _columns(amb, xl, table)
    a = min(xl)
    a_inv = [amb._inv[v] for v in a]
    h = frozenset(_translate(cols, a_inv))
    closed = all(
        h.issuperset(_translate(cols, [table[u][v] for u, v in zip(k, a_inv)]))
        for k in h
    )
    return (frozenset(map(amb._decode, h)), amb._decode(a)) if closed else None


def coset_test(amb: AmbientGroup, xs: Iterable[GTuple]) -> CosetReport:
    """Evaluate the five coset conditions independently.

    When X is a left coset, the returned subgroup is a^-1 . X for the least
    member a, and a is the translator. A disagreement among the verdicts is
    impossible and raises TheoremViolation.
    """
    xset = frozenset(amb._encode(x) for x in xs)
    if not xset:
        raise EmptySet("coset test needs a non-empty set")

    xl = list(xset)
    rows, inv = amb._rows, amb._inv
    left = _coset(amb, xl, rows)
    # (x.y^-1).X inside X, for all x, y: every product x.y^-1.z
    cols = _columns(amb, xl, rows)
    xyz = all(
        xset.issuperset(_translate(cols, [rows[u][inv[v]] for u, v in zip(x, y)]))
        for x in xl
        for y in xl
    )

    verdicts = (
        _translates_partition(amb, xl, rows),
        _translates_partition(amb, xl, amb._cols),
        left is not None,
        _coset(amb, xl, amb._cols) is not None,
        xyz,
    )
    if len(set(verdicts)) != 1:
        raise TheoremViolation(
            f"coset characterization verdicts disagree: {verdicts} "
            f"on {sorted(map(amb._decode, xset))}"
        )
    return CosetReport(*verdicts, *(left or (None, None)))


@dataclass(frozen=True)
class PartitionReport:
    equal_or_disjoint: bool
    witness: Optional[tuple[int, int, GTuple]]  # (index, index, shared member)

    def render_lines(self) -> list[str]:
        if self.equal_or_disjoint:
            return ["partition: pass (members pairwise equal or disjoint)"]
        i, j, shared = self.witness
        return [
            "partition: fail",
            f"  sets {i} and {j} overlap at {','.join(shared)} without being equal",
        ]


def partition_check(family: Sequence[Iterable[GTuple]]) -> PartitionReport:
    """Whether every pair of member sets is equal or disjoint."""
    if not family:
        raise EmptySet("partition check needs a non-empty family")
    sets = [frozenset(tuple(str(c) for c in x) for x in member) for member in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] != sets[j]:
                common = sets[i] & sets[j]
                if common:
                    return PartitionReport(False, (i, j, min(common)))
    return PartitionReport(True, None)


@dataclass(frozen=True)
class FiberReport:
    """Projection fibers of a coset: all are cosets of one subgroup."""

    subgroup: frozenset[GTuple]
    fibers: tuple[tuple[GTuple, GTuple], ...]  # (projected point, translator)


def fiber_coset_structure(
    amb: AmbientGroup, xs: Iterable[GTuple], proj: Sequence[int]
) -> FiberReport:
    """Verify that every non-empty fiber of the coordinate projection is a
    left coset, all of one common subgroup, and return that subgroup.

    Fibers are treated as subsets of the full ambient power. The input must
    itself be a left coset; given that, a failure of the fiber structure is
    impossible and raises TheoremViolation.
    """
    proj = tuple(proj)
    if not proj or any(c < 0 or c >= amb.power for c in proj):
        raise ValueError(f"projection coordinates {proj} out of range")
    xset = frozenset(amb._encode(x) for x in xs)
    if not xset:
        raise EmptySet("coset test needs a non-empty set")
    if _coset(amb, xset, amb._rows) is None:
        raise NotACoset("the input set is not a left coset")
    by_image: dict[GTuple, list[ITuple]] = {}
    for x in xset:
        by_image.setdefault(amb._decode(x[c] for c in proj), []).append(x)

    common: Optional[frozenset[GTuple]] = None
    fibers: list[tuple[GTuple, GTuple]] = []
    for image in sorted(by_image):
        coset = _coset(amb, by_image[image], amb._rows)
        if coset is None:
            raise TheoremViolation(
                f"fiber over {image} of a coset is not itself a coset"
            )
        h, a = coset
        if common is None:
            common = h
        elif common != h:
            raise TheoremViolation(
                f"fiber over {image} is a coset of a different subgroup"
            )
        fibers.append((image, a))
    return FiberReport(common, tuple(fibers))


@dataclass(frozen=True)
class LinearityReport:
    """Coset verdicts for a family of sets.

    `shared_subgroup_translates` is always True: members that are left
    cosets aH and bH of one subgroup H are carried onto each other by
    b . a^-1, so no search is needed to decide it.
    """

    member_cosets: tuple[bool, ...]
    subgroups: tuple[Optional[frozenset[GTuple]], ...]
    all_cosets: bool
    shared_subgroup_translates: bool


def family_local_linearity(
    amb: AmbientGroup, family: Sequence[Iterable[GTuple]]
) -> LinearityReport:
    """Per-member left-coset verdicts and subgroups; passes iff every
    member is a left coset."""
    if not family:
        raise EmptySet("local linearity needs a non-empty family")
    members = [frozenset(amb._encode(x) for x in m) for m in family]
    if any(not m for m in members):
        raise EmptySet("family members must be non-empty")
    cosets = [_coset(amb, m, amb._rows) for m in members]
    verdicts = tuple(c is not None for c in cosets)
    subgroups = tuple(None if c is None else c[0] for c in cosets)
    return LinearityReport(verdicts, subgroups, all(verdicts), True)
