"""Shared builders and oracles for tests.

The builders construct spines by hand with plain modular arithmetic so that
tests of the generators have an independent reference, and tests of the
engine do not depend on the generators under test. The oracles are the
string-graph map algebra and label-side products in G^n that the engine's
integer forms are checked against; they take valid inputs only.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct

import pytest

from spinekit.catalog import catalog
from spinekit.model import FiniteMap, FiniteSet, GroupoidSpine


def shift_map(src: str, tgt: str, n: int, t: int) -> FiniteMap:
    return FiniteMap(src, tgt, {str(x): str((x + t) % n) for x in range(n)})


def translation_spine(n: int, objects: int = 3) -> GroupoidSpine:
    """Increasing pairs only; every Mor(i,j) is all n translations mod n."""
    labels = [str(i) for i in range(1, objects + 1)]
    sets = {o: FiniteSet(o, [str(x) for x in range(n)]) for o in labels}
    pairs = [
        (labels[a], labels[b])
        for a in range(objects)
        for b in range(a + 1, objects)
    ]
    morphisms = {
        (i, j): tuple(shift_map(i, j, n, t) for t in range(n)) for i, j in pairs
    }
    return GroupoidSpine(labels, sets, pairs, morphisms)


def trivial_spine() -> GroupoidSpine:
    s = FiniteSet("1", ["*"])
    return GroupoidSpine(
        ["1"], {"1": s}, [("1", "1")], {("1", "1"): (FiniteMap("1", "1", {"*": "*"}),)}
    )


def all_bijections_spine(points: int = 3, objects: int = 3) -> GroupoidSpine:
    """Symmetric spine whose morphism sets are all bijections; not regular."""
    labels = [str(i) for i in range(1, objects + 1)]
    elems = [str(x) for x in range(points)]
    sets = {o: FiniteSet(o, elems) for o in labels}
    pairs = [(i, j) for i in labels for j in labels if i != j]
    maps = list(permutations(range(points)))
    morphisms = {
        (i, j): tuple(
            FiniteMap(i, j, {str(x): str(p[x]) for x in range(points)}) for p in maps
        )
        for i, j in pairs
    }
    return GroupoidSpine(labels, sets, pairs, morphisms)


def compose(f: FiniteMap, g: FiniteMap) -> FiniteMap:
    """The map x -> g(f(x)): apply f first, then g."""
    return FiniteMap(f.source, g.target, {x: g(y) for x, y in f.graph})


def invert(f: FiniteMap) -> FiniteMap:
    """The inverse bijection, with source and target swapped."""
    return FiniteMap(f.target, f.source, {y: x for x, y in f.graph})


def decode(t, source: str, target: str, src, tgt) -> FiniteMap:
    """The map source -> target whose indexed form over the element orders
    src and tgt is t."""
    return FiniteMap(source, target, {x: tgt[y] for x, y in zip(src, t)})


def compose_tuples(f: tuple, g: tuple) -> tuple:
    """x -> g[f[x]]: f first, then g, on permutations as tuples of ints."""
    return tuple([g[y] for y in f])


def invert_tuple(f: tuple) -> tuple:
    """The inverse of a permutation given as a tuple of ints."""
    inv = [0] * len(f)
    for x, y in enumerate(f):
        inv[y] = x
    return tuple(inv)


def same_morphism_sets(a: GroupoidSpine, b: GroupoidSpine) -> bool:
    """Same objects, carriers and pairs, and each family the same set of
    graphs, in any order."""
    return (
        (a.objects, a.pairs) == (b.objects, b.pairs)
        and all(a.sets[o].elements == b.sets[o].elements for o in a.objects)
        and all(set(a.morphisms[p]) == set(b.morphisms[p]) for p in a.pairs)
    )


def symmetric_closure_oracle(spine: GroupoidSpine) -> GroupoidSpine:
    """The symmetric closure of a valid regular spine: each added family
    (j, i) the inverses of Mor(i, j), stably sorted by graph key."""
    morphisms = dict(spine.morphisms)
    for i, j in spine.sorted_pairs():
        if (j, i) not in morphisms:
            inverses = map(invert, spine.morphisms[(i, j)])
            morphisms[(j, i)] = tuple(sorted(inverses, key=FiniteMap.graph_key))
    return GroupoidSpine(spine.objects, spine.sets, morphisms, morphisms)


def generated(op, identity, gens) -> frozenset:
    """The group that gens generate under the product op, breadth first."""
    out, frontier = {identity}, [identity]
    while frontier:
        frontier = [c for c in {op(a, s) for a in frontier for s in gens} if c not in out]
        out.update(frontier)
    return frozenset(out)


def catalog_upto(order: int) -> list:
    """The catalog entries of at most `order` elements, in catalog order."""
    return [(name, g) for name, g in catalog() if len(g) <= order]


# label-side products in G^n, for an `AmbientGroup` amb


def gop(amb, a: tuple, b: tuple) -> tuple:
    return tuple(map(amb.group.op, a, b))


def ginv(amb, a: tuple) -> tuple:
    return tuple(map(amb.group.inv, a))


def gidentity(amb) -> tuple:
    return (amb.group.identity,) * amb.power


def gtuples(amb):
    """Every member of G^n, in lexicographic element order."""
    return iproduct(amb.group.elements, repeat=amb.power)


def is_subgroup(amb, h) -> bool:
    # in a finite group, a set closed under the product holds the inverses
    return gidentity(amb) in h and all(gop(amb, a, b) in h for a in h for b in h)


@pytest.fixture
def z3_spine() -> GroupoidSpine:
    return translation_spine(3, 3)


@pytest.fixture
def z5_spine() -> GroupoidSpine:
    return translation_spine(5, 3)
