"""Instance generators: regular group-action spines, affine configurations
over prime fields, sharply transitive Latin-square families, and seeded
negative-path mutants.

All generators are deterministic in their parameters and seed.

Empirical note (verified by exhaustive enumeration): every sharply
transitive family of bijections at orders 2-4 is a coset of a permutation
group, so non-coset families first exist at order 5 (50 of the 56 row-set
classes there are non-cosets).
"""

from __future__ import annotations

import random
from typing import Sequence

from .catalog import cyclic_group, klein_group
from .errors import InvalidSpine, NotPrime, SearchExhausted, TooLarge
from .extension import _CLOSURE_BUDGET
from .groups import GroupTable
from .model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    Indexed,
    compose_indexed,
    indexed_form,
    indexed_map,
    invert_indexed,
    validate_spine,
)

MIN_NON_COSET_ORDER = 5  # established by brute force over orders 2-4

# The images a group-action spine may hold, maps x points: what the closure
# writes at the soft size targets, 4096 maps of 64 points on each of the
# 64 pairs of 8 objects
_SPINE_BUDGET = 64 * _CLOSURE_BUDGET


def gen_group_action_spine(group: GroupTable, objects: int) -> GroupoidSpine:
    """Spine whose carriers are copies of the group and whose morphisms are
    the left translations; regular because left translation acts regularly.

    With one object the relation is the diagonal pair; otherwise it is the
    increasing pairs only, leaving the extension machinery real work. The
    translation by h is the row of h in the group's table, x -> h.x as
    an indexed form, which every pair shares. Raises TooLarge, before
    building anything, when the maps times the points exceed
    `_SPINE_BUDGET`.
    """
    if objects < 1:
        raise ValueError("need at least one object")
    n = len(group)
    maps = n * max(1, objects * (objects - 1) // 2)
    if maps * n > _SPINE_BUDGET:
        raise TooLarge(
            f"group-action spine too large: {maps} maps of {n} points make "
            f"{maps * n} images, over the limit of {_SPINE_BUDGET}"
        )
    labels = [str(i) for i in range(1, objects + 1)]
    elems = group.elements
    sets = {o: FiniteSet(o, elems) for o in labels}

    def translations(src: str, tgt: str) -> tuple[FiniteMap, ...]:
        return tuple(indexed_map(src, tgt, elems, elems, t) for t in group._rows)

    if objects == 1:
        o = labels[0]
        pairs = [(o, o)]
        morphisms = {(o, o): translations(o, o)}
    else:
        pairs = [
            (labels[a], labels[b])
            for a in range(objects)
            for b in range(a + 1, objects)
        ]
        morphisms = {(i, j): translations(i, j) for i, j in pairs}
    return GroupoidSpine(labels, sets, pairs, morphisms)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def gen_affine_config(p: int) -> GroupoidSpine:
    """Three-object spine over the field with p elements: the morphisms
    from 1 to 2 are the translations x -> x + t, from 2 to 3 the
    translations x -> x + u, and from 1 to 3 their composites x -> x + t + u
    (which is again every translation): the group-action spine of Z/p."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > 97:
        raise TooLarge(f"affine configurations support p <= 97, got {p}")
    return gen_group_action_spine(cyclic_group(p), 3)


def _xyz_closed(rows: Sequence[Indexed]) -> bool:
    """Whether x . y^-1 . z lies in the family for all rows x, y, z."""
    fam = set(rows)
    for x in fam:
        for y in fam:
            xi = compose_indexed(invert_indexed(y), x)
            for z in fam:
                if compose_indexed(z, xi) not in fam:
                    return False
    return True


def _random_latin_square(n: int, rng: random.Random) -> list[Indexed]:
    """Uniformly-shuffled row-by-row completion, each row an indexed form;
    every Latin rectangle extends, so per-row backtracking always finds a
    next row."""
    rows: list[Indexed] = []
    col_used: list[set[int]] = [set() for _ in range(n)]

    def complete_row(row: list[int], used: set[int]) -> bool:
        c = len(row)
        if c == n:
            return True
        candidates = [s for s in range(n) if s not in used and s not in col_used[c]]
        rng.shuffle(candidates)
        for s in candidates:
            row.append(s)
            used.add(s)
            if complete_row(row, used):
                return True
            row.pop()
            used.remove(s)
        return False

    for _ in range(n):
        row: list[int] = []
        if not complete_row(row, set()):
            raise AssertionError("Latin rectangle failed to extend")
        rows.append(indexed_form(row))
        for c, s in enumerate(row):
            col_used[c].add(s)
    return rows


def _rows_to_maps(rows: Sequence[Indexed]) -> list[FiniteMap]:
    elems = tuple(str(x) for x in range(len(rows[0])))
    return [indexed_map("1", "2", elems, elems, row) for row in rows]


def gen_latin_square_family(
    order: int, want_coset: bool = True, seed: int = 0
) -> list[FiniteMap]:
    """A sharply transitive family of `order` bijections (the rows of a
    Latin square), as maps from object "1" to object "2".

    With want_coset the rows are a group table (the Klein table at order 4,
    cyclic otherwise), hence closed under (x, y, z) -> x . y^-1 . z. Without
    it, a seeded search returns a family failing that closure; such families
    do not exist below order 5, which raises SearchExhausted.
    """
    if order < 2 or order > 7:
        raise TooLarge(f"supported orders are 2..7, got {order}")
    if want_coset:
        table = klein_group() if order == 4 else cyclic_group(order)
        return _rows_to_maps(table._rows)
    if order < MIN_NON_COSET_ORDER:
        raise SearchExhausted(
            f"every sharply transitive family of order {order} is a coset family"
        )
    rng = random.Random(seed)
    for _ in range(1000):
        rows = _random_latin_square(order, rng)
        if not _xyz_closed(rows):
            return _rows_to_maps(rows)
    raise SearchExhausted(
        f"no non-coset family found at order {order} after 1000 attempts"
    )


def _carrier_order(labels: frozenset[str]) -> list[str]:
    """The labels in numeric order when every one is a decimal integer, as
    every `gen` family's are, and in label order otherwise."""
    return sorted(labels, key=int if all(x.isdecimal() for x in labels) else None)


def latin_family_spine(family: Sequence[FiniteMap]) -> GroupoidSpine:
    """The two-object spine with the given family as its only morphism set:
    X_1 is the first map's domain and X_2 its image."""
    x1, x2 = _carrier_order(family[0].domain()), _carrier_order(family[0].image())
    sets = {"1": FiniteSet("1", x1), "2": FiniteSet("2", x2)}
    return GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): tuple(family)})


def _mutate_once(spine: GroupoidSpine, rng: random.Random) -> GroupoidSpine:
    pairs = spine.sorted_pairs()
    kinds = ["drop"]
    swap_targets = [p for p in pairs if len(spine.sets[p[0]].elements) >= 2]
    if swap_targets:
        kinds.append("swap")
    inverse_targets = [p for p in pairs if (p[1], p[0]) in spine.pairs]
    if inverse_targets:
        kinds.append("drop_inverse")
    kind = rng.choice(kinds)

    morphisms = {p: list(spine.morphisms[p]) for p in pairs}
    if kind in ("drop", "drop_inverse"):
        target_pairs = inverse_targets if kind == "drop_inverse" else pairs
        pair = rng.choice(target_pairs)
        index = rng.randrange(len(morphisms[pair]))
        del morphisms[pair][index]
    else:
        pair = rng.choice(swap_targets)
        index = rng.randrange(len(morphisms[pair]))
        f = morphisms[pair][index]
        x1, x2 = rng.sample(spine.sets[pair[0]].elements, 2)
        mapping = f.mapping
        mapping[x1], mapping[x2] = mapping[x2], mapping[x1]
        morphisms[pair][index] = FiniteMap(f.source, f.target, mapping)
    return GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)


def perturb_spine(spine: GroupoidSpine, seed: int = 0) -> GroupoidSpine:
    """Apply exactly one seeded mutation for negative-path testing: drop a
    morphism, swap two images inside one map, or remove a required inverse.

    The mutant is structurally well-formed but fails regularity (counted
    first, being cheaper) or validation; the seeded choice is redrawn
    (deterministically) when a mutant of an irregular spine fails neither.
    """
    from .extension import _regularity_unchecked

    report = validate_spine(spine)
    if not report.ok:
        raise InvalidSpine(report)
    rng = random.Random(seed)
    for _ in range(50):
        mutant = _mutate_once(spine, rng)
        if not _regularity_unchecked(mutant).regular or not validate_spine(mutant).ok:
            return mutant
    raise SearchExhausted("no failing single mutation found for this spine")
