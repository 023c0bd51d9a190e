"""Groups extracted from extended spines: Cayley tables, regular actions,
fiber transport, and relabeling.

Group elements coming out of a spine are canonical graph keys of the
diagonal morphisms, so tables are deterministic across runs. The diagonal
family acts regularly on its carrier, so its Cayley table is read off the
orbit of one point rather than by composing maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product as iproduct
from operator import eq
from typing import Callable, Iterable, Mapping, Sequence

from .errors import NotRegular, UnknownElement, UnknownObject
from .extension import (
    ExtensionResult,
    _extend_regular,
    _regularity_unchecked,
    _valid_regular,
)
from .model import (
    FiniteSet,
    GroupoidSpine,
    adjoin,
    compose_indexed,
    element_index,
    encode,
    graph_keys,
    indexed_form,
    invert_indexed,
    sorted_forms,
)


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table over labeled elements.

    The group is its integer table: `_index` numbers the labels, `_rows[a]`
    is the left translation b -> a.b as an indexed form (`model`), so
    `_rows[a][b]` is the index of a.b, and `_inv` is the inversion map as a
    form. The constructor is the front end for labels: it indexes `product`
    into rows, checks that every product is given and is an element, and
    hands the rows as forms to `_check`, which internal builders
    (`tabulate`, `_diagonal_action`, `_transport`) call directly on forms
    they computed.
    The check verifies the axioms on the forms exactly from a generating
    set (`_gens`): a two-sided identity and inverses directly, associativity
    by Light's test. The generators are taken greedily in element order with
    `adjoin` over the table, so every element is a product of generators even
    before associativity is known. The test checks (x.s).y = x.(s.y) for each
    generator s and all x, y, as one composite of rows per x: the row of x.s
    is the row of s followed by the row of x. The good middles hold the
    identity and are closed under the product, since for good s and t
    (x.(s.t)).y = ((x.s).t).y = (x.s).(t.y) = x.(s.(t.y)) = x.((s.t).y);
    so they are the whole table. Only on failure does the n^3 sweep run, to
    name the first failing triple. Tables are equal when their elements,
    identity and rows are, which is when their products are; `op`, `inv`
    and the label view `product` read the forms.
    """

    elements: tuple[str, ...]
    identity: str
    _rows: tuple = field(repr=False)

    def __init__(
        self,
        elements: Iterable[str],
        identity: str,
        product: Mapping[tuple[str, str], str],
    ):
        elems = tuple(str(e) for e in elements)
        index = element_index(elems)
        if len(index) != len(elems):
            raise ValueError("duplicate element labels in group table")
        identity = str(identity)
        if identity not in index:
            raise ValueError(f"identity {identity!r} is not an element")
        prod = {(str(a), str(b)): str(c) for (a, b), c in product.items()}
        rows = [[index.get(prod.get((a, b))) for b in elems] for a in elems]
        for a, row in zip(elems, rows):
            if None in row:
                b = elems[row.index(None)]
                raise ValueError(f"product table is not total at ({a!r},{b!r})")
        self._check(elems, index[identity], tuple(map(indexed_form, rows)))
        if len(prod) != len(elems) ** 2:
            key = next(k for k in prod if k[0] not in index or k[1] not in index)
            raise ValueError(f"product key {key!r} is not a pair of elements")

    def _check(self, elems: tuple[str, ...], e: int, rows: Sequence) -> GroupTable:
        """Verify the axioms on `rows`, a tuple of total indexed forms (one
        kind, as `indexed_form` builds them), rows[a][b] the index of
        elems[a].elems[b], with identity elems[e], naming labels only in
        messages; then set the fields from them and return the table. An
        internal builder calls it on `object.__new__(GroupTable)` with
        distinct string labels. The inverse of a is the first b with
        a.b = e = b.a: the first e in a's row, when that is two-sided for
        every a, else the first two-sided one found by a scan."""
        ids = range(len(elems))
        for a, row in enumerate(rows):
            if rows[e][a] != a or row[e] != a:
                raise ValueError(f"{elems[e]!r} is not neutral at {elems[a]!r}")
        inv = [row.index(e) if e in row else e for row in rows]  # first b: a.b = e, else e
        if not all(rows[b][a] == e for a, b in enumerate(inv)):
            inv = [next((b for b in ids if rows[a][b] == e == rows[b][a]), None) for a in ids]
        if None in inv:
            missing = [elems[a] for a, b in enumerate(inv) if b is None]
            raise ValueError(f"elements without inverses: {missing}")
        inv = indexed_form(inv)
        span, gens = {e}, []
        for i in ids:
            if i not in span:
                adjoin(span, gens, i, lambda x, y: rows[x][y])
        if not all(rows[x[s]] == compose_indexed(rows[s], x) for s in gens for x in rows):
            bad = lambda a, b, c: rows[rows[a][b]][c] != rows[a][rows[b][c]]
            a, b, c = map(elems.__getitem__, next(t for t in iproduct(ids, repeat=3) if bad(*t)))
            raise ValueError(f"product is not associative at ({a!r},{b!r},{c!r})")
        self.__dict__.update(elements=elems, identity=elems[e], _rows=rows, _inv=inv)
        self.__dict__.update(_gens=tuple(gens), _index=element_index(elems))
        return self

    @cached_property
    def product(self) -> dict[tuple[str, str], str]:
        """The product keyed by the element pairs in element order, the
        constructor's argument shape; built from the rows on first read."""
        elems = self.elements
        return {(a, b): elems[c] for a, row in zip(elems, self._rows) for b, c in zip(elems, row)}

    @cached_property
    def _commuting(self) -> int:
        """The number of pairs (a, b) with ab = ba, which is |G| times the
        number of conjugacy classes (Erdős and Turán); an isomorphism
        invariant, read off the rows and columns on first use."""
        rows = self._rows
        return sum(map(eq, chain.from_iterable(rows), chain.from_iterable(zip(*rows))))

    def op(self, a: str, b: str) -> str:
        return self.elements[self._rows[self._index[a]][self._index[b]]]

    def inv(self, a: str) -> str:
        return self.elements[self._inv[self._index[a]]]

    def __len__(self) -> int:
        return len(self.elements)

    def order_of(self, a: str) -> int:
        x = self._index[a]
        row, e, n = self._rows[x], self._index[self.identity], 1
        while x != e:
            x = row[x]
            n += 1
        return n

    def order_profile(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, count) pairs; an isomorphism invariant."""
        return tuple(sorted(Counter(map(self.order_of, self.elements)).items()))


@dataclass(frozen=True, init=False)
class GroupAction:
    """The regular action of an extracted group on its carrier, the record
    `extract_group` returns.

    The action is its integer table: `_table[g]` is the map x -> g.x as an
    indexed form (`model`), for the element indices g of the group's own
    table and the point indices x of the carrier; `apply` reads it through
    `_index`, the carrier's point index. Only `_diagonal_action` builds
    one, from a family its table check has proved a group acting
    regularly, so there is no constructor and no unchecked action.
    Actions are equal when their groups, carriers and tables are.
    """

    group: GroupTable
    carrier: FiniteSet
    _table: tuple = field(repr=False)

    def apply(self, g: str, x: str) -> str:
        return self.carrier.elements[self._table[self.group._index[g]][self._index[x]]]


def tabulate(
    elements: Iterable, identity, mul: Callable, label: Callable[..., str]
) -> GroupTable:
    """The group on `elements` under `mul`, each element named label(x), a
    string, distinct for distinct elements.

    The rows are filled in from the positions of the products, in element
    order. Raises KeyError when a product is not among the elements.
    """
    xs = list(elements)
    pos = {x: i for i, x in enumerate(xs)}
    rows = tuple(indexed_form([pos[mul(x, y)] for y in xs]) for x in xs)
    return object.__new__(GroupTable)._check(tuple(map(label, xs)), pos[identity], rows)


def extract_group(ext: ExtensionResult, obj: str) -> GroupAction:
    """Realize the diagonal morphism family at one object as a concrete
    group with its regular action on that object's carrier.

    Elements are the canonical graph keys of the diagonal maps, listed in
    graph-key order (`model.sorted_forms`); the product of two keys is the
    key of the composite (right factor applied first).
    Raises UnknownObject first; then ValueError when the diagonal family
    lacks the identity; then NotRegular, with the extended spine's
    regularity report, when the family does not act regularly (on a closure
    the engine built, only a non-conservative two-object extension gets
    there: the group then outgrows the carrier); and ValueError when the
    family is not closed under composition.
    """
    return _diagonal_action(ext.extended, obj)


def _extract(spine: GroupoidSpine, obj: str) -> GroupAction:
    """`extract_group(extend_to_groupoid(spine), obj)`, validating once and
    failing in the same order; a spine that validation found to be a
    groupoid on all of I x I is its own closure and is read directly."""
    closed = len(spine.pairs) == len(spine.objects) ** 2
    if _valid_regular(spine) is not None and closed:
        return _diagonal_action(spine, obj)
    return extract_group(_extend_regular(spine), obj)


def _diagonal_action(spine: GroupoidSpine, obj: str) -> GroupAction:
    """`extract_group` on a closed spine: the action of Mor(obj, obj) on
    X_obj, failing in the order `extract_group` documents.

    A regular family is its own regular representation: g.h is the element
    sending point 0 where g(h(0)) lies. So with `orbit`, the map h -> h(0)
    from elements to points, and its inverse `at`, the row of g is g
    conjugated by the orbit map, h -> at[g[orbit[h]]]: two composites of
    forms per row. That one table check decides closure under
    composition. A closed family is a group with these rows as its Cayley
    table. Conversely, Light's test on the rows, over the table's
    generators, is the action's compatibility test (g.h).x = g.(h.x) over
    the same generators conjugated by the orbit map, so when the rows pass
    every composite of two members is a member. A family holding the
    identity, closed, and with |G| = |X| points in the orbit of point 0
    acts regularly, so the forms are the action table as they stand and
    no action check runs."""
    if obj not in spine.objects:
        raise UnknownObject(f"object {obj!r} is not in the spine")
    carrier = spine.sets[obj]
    elems = carrier.elements
    index = element_index(elems)
    family = spine.morphisms[(obj, obj)]
    # label order: the group's element order
    forms = sorted_forms({encode(f, elems, elems, index) for f in family}, elems, elems)
    identity = indexed_form(range(len(elems)))
    if identity not in forms:
        raise ValueError("the permutations lack the identity")
    orbit = indexed_form([t[0] for t in forms])
    if not len(set(orbit)) == len(forms) == len(elems):
        raise NotRegular(_regularity_unchecked(spine))
    at = invert_indexed(orbit)
    rows = tuple(compose_indexed(compose_indexed(orbit, g), at) for g in forms)
    labels = tuple(map(graph_keys(elems, elems), forms))
    try:
        group = object.__new__(GroupTable)._check(labels, forms.index(identity), rows)
    except ValueError:
        raise ValueError("the permutations are not closed under composition") from None
    action = object.__new__(GroupAction)
    action.__dict__.update(group=group, carrier=carrier, _table=tuple(forms), _index=index)
    return action


def _transport(g: GroupTable, table: Sequence, x: int, elements: tuple[str, ...]) -> GroupTable:
    """The group on `elements` that the bijection phi: h -> table[h][x],
    from g's element indices onto the indices of `elements`, makes
    isomorphic to g: phi(a).phi(b) = phi(a.b). So the row of phi(a) is the
    row of a conjugated by phi, z -> phi[rows[a][back[z]]] with back the
    inverse of phi: two composites of forms per row."""
    phi = indexed_form([row[x] for row in table])
    back, rows = invert_indexed(phi), g._rows
    conjugated = tuple(compose_indexed(compose_indexed(back, rows[a]), phi) for a in back)
    return object.__new__(GroupTable)._check(elements, phi[g._index[g.identity]], conjugated)


def group_on_fiber(ga: GroupAction, e: str) -> GroupTable:
    """Transport the group structure onto the carrier along g -> g . e.

    The result lives on the carrier's elements with e as the identity and
    is isomorphic to the acting group.
    """
    if e not in ga._index:
        raise UnknownElement(f"{e!r} is not a carrier element")
    return _transport(ga.group, ga._table, ga._index[e], ga.carrier.elements)


def relabel_group(g: GroupTable, d: str) -> GroupTable:
    """The group on the same elements with product x . d^-1 . y, making d
    the identity: the transport along x -> x . d; isomorphic to the
    original."""
    if d not in g._index:
        raise UnknownElement(f"{d!r} is not an element")
    return _transport(g, g._rows, g._index[d], g.elements)
