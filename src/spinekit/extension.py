"""Regularity checking and the constructive extension of spines to groupoids.

A regular spine (exactly one morphism through every source/target point pair)
always extends to a symmetric spine, and with at least three objects it
extends to a full groupoid without adding morphisms on the original pairs.
The closure here computes the groupoid generated by all input morphisms, as
one vertex group carried along a spanning tree, and reports honestly whether
anything was added, so two-object inputs surface genuine counterexamples
instead of being refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidSpine, NotRegular, TheoremViolation, TooLarge
from .model import (
    FiniteMap,
    GroupoidSpine,
    Indexed,
    _span_loops,
    compose_indexed,
    element_index,
    encode,
    indexed_form,
    indexed_map,
    invert_indexed,
    sorted_forms,
    validate_spine,
)

# The closure writes |G|·|I|^2 maps; it refuses a vertex group G past
# _CLOSURE_BUDGET // |I|^2 maps: 4096 maps per pair on 8 objects, the soft
# size target
_CLOSURE_BUDGET = 262_144


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
    exactly when the extension is conservative. `iterations` is 1 + the
    number of generators the closure adjoined to the vertex group.
    """

    extended: GroupoidSpine
    conservative: bool
    added_morphisms: Mapping[tuple[str, str], tuple[FiniteMap, ...]]
    iterations: int


def check_regularity(spine: GroupoidSpine) -> RegularityReport:
    """Count, for every pair and every (x, y), the morphisms sending x to y.

    Passes iff every count is exactly one; otherwise reports the first ten
    violating triples in canonical order. A spine that validation read as a
    vertex group is decided from that group, without counting.
    """
    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    return _regularity(spine, report._group)


def _regularity_unchecked(spine: GroupoidSpine) -> RegularityReport:
    """The literal per-pair counts of `check_regularity`, on any spine; a
    map listed twice counts once."""
    violations: list[RegularityViolation] = []
    for pair in spine.sorted_pairs():
        i, j = pair
        src, tgt = spine.sets[i].elements, spine.sets[j].elements
        ni, nj, index = len(src), len(tgt), element_index(tgt)
        counts = [[0] * nj for _ in range(ni)]
        for t in {encode(f, src, tgt, index) for f in spine.morphisms[pair]}:
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


def _sharply_transitive(group: set[Indexed]) -> bool:
    """Whether a valid spine whose vertex group at o0 is G, as validation
    or the closure found it, is regular: iff |G| = |X_o0| and the orbit of
    point 0 under G has |G| points, O(|G|).

    Each present Mor(i, j) is t_i^-1, G, t_j (maps listed in the order they
    apply, t_i the tree map o0 -> i), so f = t_i^-1, g, t_j sends x to y iff
    g sends t_i^-1(x) to t_j^-1(y), and distinct g give distinct f. Hence
    each (x, y) is hit once in every pair iff each point pair of X_o0 is
    hit by exactly one g: iff G is sharply transitive on X_o0. That holds
    iff G has |X_o0| elements and point 0 a trivial stabilizer (an orbit of
    |G| points), since a transitive group's stabilizers are conjugate.
    """
    size = len(group)
    return size == len(next(iter(group))) and len({g[0] for g in group}) == size


def _regularity(spine: GroupoidSpine, group: set[Indexed] | None) -> RegularityReport:
    """The regularity report of a valid spine whose vertex group at o0 is
    `group` (None when unknown). The per-pair counts run only when there is
    no group, or to name the failures of a spine that is not regular."""
    if group is not None and _sharply_transitive(group):
        return RegularityReport(True, ())
    return _regularity_unchecked(spine)


def _valid_regular(spine: GroupoidSpine) -> set[Indexed] | None:
    """The vertex group that validation found on a valid regular spine, or
    None; raises InvalidSpine or NotRegular, with its report, otherwise."""
    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    reg = _regularity(spine, report._group)
    if not reg.regular:
        raise NotRegular(reg)
    return report._group


def symmetric_closure(spine: GroupoidSpine) -> GroupoidSpine:
    """Enlarge the pair relation to its symmetric closure.

    Each added pair (j, i) carries exactly the inverses of Mor(i, j), as
    `indexed_map`s in graph-key order (`sorted_forms`). Pairs already
    present keep their morphism lists verbatim. Requires a valid regular
    spine (regularity is what makes the result closed under composition).
    """
    _valid_regular(spine)
    if all((j, i) in spine.pairs for i, j in spine.pairs):
        return spine
    elems = {o: spine.sets[o].elements for o in spine.objects}
    index = {o: element_index(elems[o]) for o in spine.objects}
    pairs = set(spine.pairs)
    morphisms = {p: spine.morphisms[p] for p in spine.pairs}
    for i, j in spine.sorted_pairs():
        if (j, i) in pairs:
            continue
        pairs.add((j, i))
        fams = spine.morphisms[(i, j)]
        forms = [invert_indexed(encode(f, elems[i], elems[j], index[j])) for f in fams]
        morphisms[(j, i)] = tuple(
            indexed_map(j, i, elems[j], elems[i], t)
            for t in sorted_forms(forms, elems[j], elems[i])
        )
    return GroupoidSpine(spine.objects, spine.sets, pairs, morphisms)


def _close_to_groupoid(spine: GroupoidSpine) -> tuple[ExtensionResult, set[Indexed]]:
    """Extend a spine in which every increasing pair is present to the
    groupoid all its morphisms generate, and return the extension with the
    vertex group G at o0 it built. There is no regularity gate and no
    theorem assertion: on any such spine the generated groupoid is well
    defined, and the report of added maps compares it honestly with the
    input pairs.

    The closure works on indexed forms only: each input family is its set
    of forms in graph-key order (`sorted_forms`), the one order of every
    output family too, so the output depends only on the input's sets of
    maps. A connected groupoid is one vertex group carried along a tree:
    t_i is the first form of Mor(o0, i), o0 the first object (t_o0 = id).
    The loops t_i, f, t_j^-1 at o0 of the inputs f: i -> j span the vertex
    group G (`_span_loops`); then Mor(i, j) = t_i^-1, G, t_j, so an input
    family of |G| distinct forms is already all of it and is written as it
    is. Every other family is built from G, and an input family among them
    gains the maps whose forms it does not hold. The closed spine has
    pairs = I x I and every family of `indexed_map`s; `iterations` is 1 +
    the number of loops adjoined, with pairs scanned in canonical order and
    forms in graph-key order.
    Raises TooLarge, before any output map is built, when G passes
    `_CLOSURE_BUDGET` // |I|^2 maps.
    """
    objs = spine.objects
    o0 = objs[0]
    elems = {o: spine.sets[o].elements for o in objs}
    index = {o: element_index(elems[o]) for o in objs}

    ordered = {}
    for i, j in spine.sorted_pairs():
        forms = {encode(f, elems[i], elems[j], index[j]) for f in spine.morphisms[(i, j)]}
        ordered[(i, j)] = sorted_forms(forms, elems[i], elems[j])
    tree = {o0: indexed_form(range(len(elems[o0])))}
    tree |= {o: ordered[(o0, o)][0] for o in objs[1:]}
    limit = _CLOSURE_BUDGET // len(objs) ** 2
    span = _span_loops(tree, ordered.items(), limit)
    if span is None:
        raise TooLarge(
            f"closure too large: its vertex group passes {limit} maps, the most "
            f"that {len(objs)} objects allow within {_CLOSURE_BUDGET} output maps"
        )
    group, gens = span
    back = {o: invert_indexed(t) for o, t in tree.items()}
    ahead = {o: indexed_form(t, table=True) for o, t in tree.items()}

    morphisms, added = {}, {}
    for i in objs:
        from_i = [compose_indexed(back[i], g) for g in group]
        for j in objs:
            maps = held = ordered.get((i, j), ())
            if len(held) < len(group):  # not yet all of Mor(i, j): built from G
                built = [compose_indexed(h, ahead[j]) for h in from_i]
                maps = sorted_forms(built, elems[i], elems[j])
            morphisms[(i, j)] = fams = tuple(
                indexed_map(i, j, elems[i], elems[j], t) for t in maps
            )
            if (i, j) in ordered and maps is not held:  # some inputs are gained
                held = set(held)
                added[(i, j)] = tuple(f for t, f in zip(maps, fams) if t not in held)
    closed = GroupoidSpine(objs, spine.sets, list(morphisms), morphisms)
    result = ExtensionResult(
        extended=closed,
        conservative=not added,
        added_morphisms=added,
        iterations=1 + len(gens),
    )
    return result, group


def extend_to_groupoid(spine: GroupoidSpine) -> ExtensionResult:
    """Extend a valid regular spine to the groupoid its morphisms generate.

    With three or more objects the result is guaranteed conservative and
    regular; a failure of either guarantee is an implementation bug and
    raises TheoremViolation. With two objects no guarantee exists and the
    result reports conservativity per instance.
    Input and output regularity are read off the vertex groups that
    validation and the closure found (see `_regularity`).
    """
    _valid_regular(spine)
    return _extend_regular(spine)


def _extend_regular(spine: GroupoidSpine) -> ExtensionResult:
    """`extend_to_groupoid` on a spine already found valid and regular."""
    result, group = _close_to_groupoid(spine)
    if len(spine.objects) >= 3:
        if not result.conservative:
            raise TheoremViolation(
                "closure of a regular spine on >= 3 objects added morphisms "
                f"on original pairs: {sorted(result.added_morphisms)}"
            )
        ext_reg = _regularity(result.extended, group)
        if not ext_reg.regular:
            raise TheoremViolation(
                "extension of a regular spine on >= 3 objects is not regular: "
                + "; ".join(v.render() for v in ext_reg.violations)
            )
    return result
