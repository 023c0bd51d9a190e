"""Groups extracted from extended spines: Cayley tables, regular actions,
fiber transport, and relabeling.

Group elements coming out of a spine are canonical graph keys of the
diagonal morphisms, so tables are deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import MixedSignature, UnknownElement, UnknownObject
from .extension import ExtensionResult
from .model import FiniteMap, FiniteSet, compose_indexed, element_index, encode


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table over labeled elements.

    Construction verifies the group axioms exhaustively: associativity,
    two-sided identity, and two-sided inverses.
    """

    elements: tuple[str, ...]
    identity: str
    product: Mapping[tuple[str, str], str]
    inverse: Mapping[str, str]

    def __init__(
        self,
        elements: Iterable[str],
        identity: str,
        product: Mapping[tuple[str, str], str],
        inverse: Mapping[str, str] | None = None,
    ):
        elems = tuple(str(e) for e in elements)
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate element labels in group table")
        identity = str(identity)
        if identity not in elems:
            raise ValueError(f"identity {identity!r} is not an element")
        prod = {(str(a), str(b)): str(c) for (a, b), c in product.items()}
        eset = set(elems)
        for a in elems:
            for b in elems:
                c = prod.get((a, b))
                if c is None or c not in eset:
                    raise ValueError(f"product table is not total at ({a!r},{b!r})")
        for a in elems:
            if prod[(identity, a)] != a or prod[(a, identity)] != a:
                raise ValueError(f"{identity!r} is not neutral at {a!r}")
        if inverse is None:
            inv = {}
            for a in elems:
                for b in elems:
                    if prod[(a, b)] == identity and prod[(b, a)] == identity:
                        inv[a] = b
                        break
            if len(inv) != len(elems):
                missing = [a for a in elems if a not in inv]
                raise ValueError(f"elements without inverses: {missing}")
        else:
            inv = {str(a): str(b) for a, b in inverse.items()}
            for a in elems:
                b = inv.get(a)
                if b is None or prod[(a, b)] != identity or prod[(b, a)] != identity:
                    raise ValueError(f"inverse table is wrong at {a!r}")
        for a in elems:
            for b in elems:
                for c in elems:
                    if prod[(prod[(a, b)], c)] != prod[(a, prod[(b, c)])]:
                        raise ValueError(
                            f"product is not associative at ({a!r},{b!r},{c!r})"
                        )
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "product", prod)
        object.__setattr__(self, "inverse", inv)

    def op(self, a: str, b: str) -> str:
        return self.product[(a, b)]

    def inv(self, a: str) -> str:
        return self.inverse[a]

    def __len__(self) -> int:
        return len(self.elements)

    def order_of(self, a: str) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            n += 1
        return n

    def order_profile(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, count) pairs; an isomorphism invariant."""
        counts: dict[int, int] = {}
        for a in self.elements:
            d = self.order_of(a)
            counts[d] = counts.get(d, 0) + 1
        return tuple(sorted(counts.items()))

    def table_equal(self, other: GroupTable) -> bool:
        """Graph-identical tables: same elements, identity, and products."""
        return (
            self.elements == other.elements
            and self.identity == other.identity
            and self.product == other.product
        )


@dataclass(frozen=True)
class GroupAction:
    """A group acting on a finite carrier.

    Construction verifies that the identity acts trivially, that the action
    respects the product, and that the action is regular: every (x, y) is
    achieved by exactly one group element.
    """

    group: GroupTable
    carrier: FiniteSet
    act: Mapping[tuple[str, str], str]

    def __init__(
        self,
        group: GroupTable,
        carrier: FiniteSet,
        act: Mapping[tuple[str, str], str],
    ):
        act = {(str(g), str(x)): str(y) for (g, x), y in act.items()}
        points = set(carrier.elements)
        for g in group.elements:
            for x in carrier.elements:
                y = act.get((g, x))
                if y is None or y not in points:
                    raise ValueError(f"action is not total at ({g!r},{x!r})")
        for x in carrier.elements:
            if act[(group.identity, x)] != x:
                raise ValueError(f"identity moves {x!r}")
        for g in group.elements:
            for h in group.elements:
                gh = group.op(g, h)
                for x in carrier.elements:
                    if act[(gh, x)] != act[(g, act[(h, x)])]:
                        raise ValueError(
                            f"action incompatible with product at ({g!r},{h!r},{x!r})"
                        )
        for x in carrier.elements:
            for y in carrier.elements:
                hits = [g for g in group.elements if act[(g, x)] == y]
                if len(hits) != 1:
                    raise ValueError(
                        f"action is not regular: {len(hits)} elements send "
                        f"{x!r} to {y!r}"
                    )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "act", act)

    def apply(self, g: str, x: str) -> str:
        return self.act[(g, x)]

    def element_sending(self, x: str, y: str) -> str:
        """The unique group element with g . x = y."""
        for g in self.group.elements:
            if self.act[(g, x)] == y:
                return g
        raise UnknownElement(f"no element sends {x!r} to {y!r}")


def dedupe_family(
    maps: Sequence[FiniteMap],
) -> tuple[list[FiniteMap], list[int]]:
    """Quotient a represented family by graph equality.

    Returns one representative per distinct graph in first-occurrence order,
    and for each input index the index of its representative.
    """
    maps = list(maps)
    if maps:
        src, tgt = maps[0].source, maps[0].target
        for n, f in enumerate(maps):
            if f.source != src or f.target != tgt:
                raise MixedSignature(
                    f"map {n} is {f.source!r}->{f.target!r}, "
                    f"expected {src!r}->{tgt!r}"
                )
    representatives: list[FiniteMap] = []
    where: dict[tuple, int] = {}
    class_of: list[int] = []
    for f in maps:
        if f.graph not in where:
            where[f.graph] = len(representatives)
            representatives.append(f)
        class_of.append(where[f.graph])
    return representatives, class_of


def extract_group(ext: ExtensionResult, obj: str) -> GroupAction:
    """Realize the diagonal morphism family at one object as a concrete
    group with its regular action on that object's carrier.

    Elements are the canonical graph keys of the diagonal maps; the product
    of two keys is the key of the composite (right factor applied first).
    """
    spine = ext.extended
    if obj not in spine.objects:
        raise UnknownObject(f"object {obj!r} is not in the spine")
    elems = spine.sets[obj].elements
    index = element_index(elems)
    key_of = {
        encode(f, elems, index): f.graph_key() for f in spine.morphisms[(obj, obj)]
    }
    by_key = {k: t for t, k in key_of.items()}
    keys = tuple(sorted(by_key))
    identity_key = key_of.get(tuple(range(len(elems))))
    if identity_key is None:
        raise ValueError(
            f"Mor({obj},{obj}) lacks the identity; the extension is not valid"
        )
    product: dict[tuple[str, str], str] = {}
    for ka in keys:
        ta = by_key[ka]
        for kb in keys:
            # product a.b acts as "apply b, then a"
            composite = key_of.get(compose_indexed(by_key[kb], ta))
            if composite is None:
                raise ValueError(
                    f"Mor({obj},{obj}) is not closed under composition; "
                    "the extension is not valid"
                )
            product[(ka, kb)] = composite
    table = GroupTable(keys, identity_key, product)
    act = {
        (k, x): elems[y] for k in keys for x, y in zip(elems, by_key[k])
    }
    return GroupAction(table, spine.sets[obj], act)


def group_on_fiber(ga: GroupAction, e: str) -> GroupTable:
    """Transport the group structure onto the carrier along g -> g . e.

    The result lives on the carrier's elements with e as the identity and
    is isomorphic to the acting group.
    """
    if e not in ga.carrier.elements:
        raise UnknownElement(f"{e!r} is not a carrier element")
    to_group = {x: ga.element_sending(e, x) for x in ga.carrier.elements}
    product = {
        (x, y): ga.apply(ga.group.op(to_group[x], to_group[y]), e)
        for x in ga.carrier.elements
        for y in ga.carrier.elements
    }
    inverse = {
        x: ga.apply(ga.group.inv(to_group[x]), e) for x in ga.carrier.elements
    }
    return GroupTable(ga.carrier.elements, e, product, inverse)


def relabel_group(g: GroupTable, d: str) -> GroupTable:
    """The group on the same elements with product x . d^-1 . y, making d
    the identity; isomorphic to the original."""
    if d not in g.elements:
        raise UnknownElement(f"{d!r} is not an element")
    di = g.inv(d)
    product = {
        (x, y): g.op(g.op(x, di), y) for x in g.elements for y in g.elements
    }
    inverse = {x: g.op(g.op(d, g.inv(x)), d) for x in g.elements}
    return GroupTable(g.elements, d, product, inverse)
