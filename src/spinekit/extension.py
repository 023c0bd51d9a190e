"""Regularity checking and the constructive extension of spines to groupoids.

A regular spine (exactly one morphism through every source/target point pair)
always extends to a symmetric spine, and with at least three objects it
extends to a full groupoid without adding morphisms on the original pairs.
The closure here computes the groupoid generated by all input morphisms and
reports honestly whether anything was added, so two-object inputs surface
genuine counterexamples instead of being refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidSpine, NotRegular, TheoremViolation
from .model import (
    FiniteMap,
    GroupoidSpine,
    Indexed,
    compose_indexed,
    decode,
    element_index,
    encode,
    invert,
    invert_indexed,
    validate_spine,
)


@dataclass(frozen=True)
class RegularityViolation:
    pair: tuple[str, str]
    x: str
    y: str
    count: int

    def render(self) -> str:
        i, j = self.pair
        return (
            f"Mor({i},{j}) hits ({self.x} -> {self.y}) {self.count} times, "
            "expected exactly 1"
        )


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    violations: tuple[RegularityViolation, ...]  # at most the first ten

    def render_lines(self) -> list[str]:
        if self.regular:
            return ["regularity: pass"]
        lines = ["regularity: fail"]
        lines += [f"  {v.render()}" for v in self.violations]
        return lines


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of extending a spine to a full groupoid.

    `added_morphisms` lists, for each pair of the input relation that gained
    maps, the maps present after closure but absent originally; it is empty
    exactly when the extension is conservative.
    """

    extended: GroupoidSpine
    conservative: bool
    added_morphisms: Mapping[tuple[str, str], tuple[FiniteMap, ...]]
    iterations: int


def _encode_morphisms(spine: GroupoidSpine) -> dict[tuple[str, str], set[Indexed]]:
    """Each pair's morphisms as a set of indexed maps."""
    index = {o: element_index(spine.sets[o].elements) for o in spine.objects}
    return {
        (i, j): {encode(f, spine.sets[i].elements, index[j]) for f in fams}
        for (i, j), fams in spine.morphisms.items()
    }


def check_regularity(spine: GroupoidSpine) -> RegularityReport:
    """Count, for every pair and every (x, y), the morphisms sending x to y.

    Passes iff every count is exactly one; otherwise reports the first ten
    violating triples in canonical order.
    """
    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    return _regularity_unchecked(spine)


def _regularity_unchecked(spine: GroupoidSpine) -> RegularityReport:
    violations: list[RegularityViolation] = []
    mor = _encode_morphisms(spine)
    for pair in spine.sorted_pairs():
        i, j = pair
        src, tgt = spine.sets[i].elements, spine.sets[j].elements
        ni, nj = len(src), len(tgt)
        counts = [[0] * nj for _ in range(ni)]
        for t in mor[pair]:
            for x in range(ni):
                counts[x][t[x]] += 1
        for x in range(ni):
            for y in range(nj):
                if counts[x][y] != 1:
                    violations.append(
                        RegularityViolation(pair, src[x], tgt[y], counts[x][y])
                    )
                    if len(violations) == 10:
                        return RegularityReport(False, tuple(violations))
    return RegularityReport(not violations, tuple(violations))


def symmetric_closure(spine: GroupoidSpine) -> GroupoidSpine:
    """Enlarge the pair relation to its symmetric closure.

    Each added pair (j, i) carries exactly the inverses of Mor(i, j); pairs
    already present keep their morphism lists verbatim. Requires a valid
    regular spine (regularity is what makes the result closed under
    composition).
    """
    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    reg = _regularity_unchecked(spine)
    if not reg.regular:
        raise NotRegular(reg)
    return _symmetric_closure_unchecked(spine)


def _symmetric_closure_unchecked(spine: GroupoidSpine) -> GroupoidSpine:
    if all((j, i) in spine.pairs for i, j in spine.pairs):
        return spine
    pairs = set(spine.pairs)
    morphisms = {p: spine.morphisms[p] for p in spine.pairs}
    for i, j in spine.sorted_pairs():
        if (j, i) in pairs:
            continue
        pairs.add((j, i))
        inverses = sorted(
            (invert(f) for f in spine.morphisms[(i, j)]),
            key=FiniteMap.graph_key,
        )
        morphisms[(j, i)] = tuple(inverses)
    return GroupoidSpine(spine.objects, spine.sets, pairs, morphisms)


def _close_to_groupoid(spine: GroupoidSpine) -> tuple[GroupoidSpine, int]:
    """Compute the groupoid generated by all morphisms of a spine whose pair
    relation already contains every off-diagonal pair (or has one object).

    Missing diagonals are seeded with compositions through the least other
    object, then everything is closed under composition and inversion by
    frontier rounds. Returns the closed spine (pairs = I x I, morphism lists
    sorted by graph key) and the number of rounds run, counting the final
    round that adds nothing.
    """
    objs = spine.objects
    mor = _encode_morphisms(spine)

    for i in objs:
        if (i, i) in mor:
            continue
        k = next(o for o in objs if o != i)
        mor[(i, i)] = {
            compose_indexed(f, g) for f in mor[(i, k)] for g in mor[(k, i)]
        }

    frontier = {pair: set(maps) for pair, maps in mor.items()}
    iterations = 0
    while True:
        iterations += 1
        new: dict[tuple[str, str], set[Indexed]] = {}

        def emit(pair: tuple[str, str], t: Indexed) -> None:
            if t not in mor[pair] and t not in new.setdefault(pair, set()):
                new[pair].add(t)

        for (i, j), front_ij in frontier.items():
            for t in front_ij:
                emit((j, i), invert_indexed(t))
        for i in objs:
            for j in objs:
                for k in objs:
                    ij, jk, ik = (i, j), (j, k), (i, k)
                    front_f = frontier.get(ij, ())
                    front_g = frontier.get(jk, ())
                    for f in front_f:
                        for g in mor[jk]:
                            emit(ik, compose_indexed(f, g))
                    for g in front_g:
                        for f in mor[ij]:
                            if f in front_f:
                                continue  # already composed above
                            emit(ik, compose_indexed(f, g))
        if not any(new.values()):
            break
        for pair, maps in new.items():
            mor[pair].update(maps)
        frontier = {pair: maps for pair, maps in new.items() if maps}

    all_pairs = [(i, j) for i in objs for j in objs]
    elems = {o: spine.sets[o].elements for o in objs}
    morphisms = {
        (i, j): tuple(
            sorted(
                (decode(t, i, j, elems[i], elems[j]) for t in mor[(i, j)]),
                key=FiniteMap.graph_key,
            )
        )
        for i, j in all_pairs
    }
    closed = GroupoidSpine(objs, spine.sets, all_pairs, morphisms)
    return closed, iterations


def _extend_unchecked(spine: GroupoidSpine) -> ExtensionResult:
    """Extension without the regularity gate or the theorem assertion.

    Symmetric closure here is raw data (inverses adjoined); on non-regular
    input the intermediate stage need not itself satisfy the spine axioms,
    but the generated groupoid is still well-defined and the conservativity
    comparison against the original pairs stays honest.
    """
    sym = _symmetric_closure_unchecked(spine)
    closed, iterations = _close_to_groupoid(sym)
    added: dict[tuple[str, str], tuple[FiniteMap, ...]] = {}
    for pair in spine.sorted_pairs():
        before = {f.graph for f in spine.morphisms[pair]}
        gained = [f for f in closed.morphisms[pair] if f.graph not in before]
        if gained:
            added[pair] = tuple(gained)
    return ExtensionResult(
        extended=closed,
        conservative=not added,
        added_morphisms=added,
        iterations=iterations,
    )


def extend_to_groupoid(spine: GroupoidSpine) -> ExtensionResult:
    """Extend a valid regular spine to the groupoid its morphisms generate.

    With three or more objects the result is guaranteed conservative and
    regular; a failure of either guarantee is an implementation bug and
    raises TheoremViolation. With two objects no guarantee exists and the
    result reports conservativity per instance.
    """
    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    reg = _regularity_unchecked(spine)
    if not reg.regular:
        raise NotRegular(reg)
    result = _extend_unchecked(spine)
    if len(spine.objects) >= 3:
        if not result.conservative:
            raise TheoremViolation(
                "closure of a regular spine on >= 3 objects added morphisms "
                f"on original pairs: {sorted(result.added_morphisms)}"
            )
        ext_reg = _regularity_unchecked(result.extended)
        if not ext_reg.regular:
            raise TheoremViolation(
                "extension of a regular spine on >= 3 objects is not regular: "
                + "; ".join(v.render() for v in ext_reg.violations)
            )
    return result
