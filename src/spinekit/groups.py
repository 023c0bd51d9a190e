"""Groups extracted from extended spines: Cayley tables, regular actions,
fiber transport, and relabeling.

Group elements coming out of a spine are canonical graph keys of the
diagonal morphisms, so tables are deterministic across runs. The diagonal
family acts regularly on its carrier, so its Cayley table is read off the
orbit of one point rather than by composing maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
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
)


def _total_forms(what: str, rows: list, names: Sequence[str], at: Sequence[str]) -> tuple:
    """`rows`, lists of indices with None for an entry not given, as indexed
    forms; raises ValueError at the first missing entry, named by the row
    labels `names` and the column labels `at`. The label front ends call
    it, so `_check` takes total forms only."""
    for a, row in zip(names, rows):
        if None in row:
            raise ValueError(f"{what} is not total at ({a!r},{at[row.index(None)]!r})")
    return tuple(map(indexed_form, rows))


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a Cayley table over labeled elements.

    The group is its integer table: `_index` numbers the labels, `_rows[a]`
    is the left translation b -> a.b as an indexed form (`model`), so
    `_rows[a][b]` is the index of a.b, and `_inv` is the inversion map as a
    form. The constructor is the front end for labels: it indexes `product`
    into rows, checks that every product is given and is an element, and
    hands the rows as forms to `_check`, which internal builders
    (`tabulate`, `_diagonal_action`) call directly on forms they computed.
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
    name the first failing triple. The label fields `product` and `inverse`
    are built once, from the rows.
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
        self._check(elems, index[identity], _total_forms("product table", rows, elems, elems))
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
        product = {(a, b): elems[c] for a, row in zip(elems, rows) for b, c in zip(elems, row)}
        inverse = {a: elems[b] for a, b in zip(elems, inv)}
        self.__dict__.update(elements=elems, identity=elems[e], product=product, inverse=inverse)
        self.__dict__.update(_gens=tuple(gens), _index=element_index(elems), _rows=rows, _inv=inv)
        return self

    def op(self, a: str, b: str) -> str:
        return self.product[(a, b)]

    def inv(self, a: str) -> str:
        return self.inverse[a]

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


@dataclass(frozen=True)
class GroupAction:
    """A group acting on a finite carrier.

    The action is its integer table: table[g] is the map x -> g.x as an
    indexed form (`model`), for the element indices g of the group's own
    table and the point indices x of the carrier. The constructor is the
    front end for labels: it indexes `act` into that table, checks that
    every image is given and is a point, and hands the rows as forms to
    `_check`, which `_diagonal_action` calls directly on the forms it
    holds, after reading the group's rows off the orbit of point 0; there
    the check is what proves the forms closed under composition. The check
    verifies exactly, from the group's generating set, that the identity
    acts trivially, that the action respects the product, and that it is
    regular: every (x, y) is achieved by exactly one group element.
    (g.h).x = g.(h.x) is checked for the generators h only, one composite
    of forms per (g, h), |G|.#gens.|X|:
    the good h hold the identity and are closed under the product, since
    (g.(h.k)).x = ((g.h).k).x = (g.h).(k.x) = g.(h.(k.x)) = g.((h.k).x).
    Regularity is |G| = |X| and g -> g.x reaching |X| points for each x,
    |G|.|X|. On failure the full loops run, to name the first failure. The
    label field `act` is built once, from the table, and is keyed by exactly
    the (element, point) pairs.
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
        at = element_index(carrier.elements)
        elems, points = group.elements, carrier.elements
        table = [[at.get(act.get((g, x))) for x in points] for g in elems]
        self._check(group, carrier, _total_forms("action", table, elems, points))
        if len(act) != len(group) * len(carrier):
            key = next(k for k in act if k[0] not in group._index or k[1] not in at)
            raise ValueError(f"action key {key!r} is not an (element, point) pair")

    def _check(self, group: GroupTable, carrier: FiniteSet, table: Sequence) -> GroupAction:
        """Verify the action axioms on `table`, a sequence of total indexed
        forms (one kind, as `indexed_form` builds them), table[g][x] the
        index of g.x for the element indices g of the group's own table,
        naming labels only in messages; then set the fields from it and
        return the action. `_diagonal_action` calls it on
        `object.__new__(GroupAction)`."""
        elems, points = group.elements, carrier.elements
        for x, y in enumerate(table[group._index[group.identity]]):
            if y != x:
                raise ValueError(f"identity moves {points[x]!r}")
        rows, gens, ids = group._rows, group._gens, range(len(elems))
        if any(
            table[rows[g][h]] != compose_indexed(table[h], table[g]) for g in ids for h in gens
        ):
            bad = lambda g, h, x: table[rows[g][h]][x] != table[g][table[h][x]]
            g, h, x = next(t for t in iproduct(ids, ids, range(len(points))) if bad(*t))
            g, h, x = elems[g], elems[h], points[x]
            raise ValueError(f"action incompatible with product at ({g!r},{h!r},{x!r})")
        if len(elems) != len(points) or any(
            len(set(column)) != len(points) for column in zip(*table)
        ):
            for (x, px), (y, py) in iproduct(enumerate(points), repeat=2):
                n = sum(row[x] == y for row in table)
                if n != 1:
                    raise ValueError(f"action is not regular: {n} elements send {px!r} to {py!r}")
        act = {(g, x): points[y] for g, row in zip(elems, table) for x, y in zip(points, row)}
        self.__dict__.update(group=group, carrier=carrier, act=act)
        return self

    def apply(self, g: str, x: str) -> str:
        return self.act[(g, x)]


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

    Elements are the canonical graph keys of the diagonal maps; the product
    of two keys is the key of the composite (right factor applied first).
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
    forms per row. The table and action checks then pass exactly when the
    family is closed under composition: a closed family is a group with
    these rows as its Cayley table, and the action's compatibility check
    puts every composite of two members in the family."""
    if obj not in spine.objects:
        raise UnknownObject(f"object {obj!r} is not in the spine")
    carrier = spine.sets[obj]
    elems = carrier.elements
    index = element_index(elems)
    family = spine.morphisms[(obj, obj)]
    graph_key = graph_keys(elems, elems)
    key_of = {t: graph_key(t) for t in (encode(f, elems, index) for f in family)}
    forms = sorted(key_of, key=key_of.__getitem__)  # label order: the group's element order
    identity = indexed_form(range(len(elems)))
    if identity not in key_of:
        raise ValueError("the permutations lack the identity")
    orbit = indexed_form([t[0] for t in forms])
    if not len(set(orbit)) == len(forms) == len(elems):
        raise NotRegular(_regularity_unchecked(spine))
    at = invert_indexed(orbit)
    rows = tuple(compose_indexed(compose_indexed(orbit, g), at) for g in forms)
    labels = tuple(map(key_of.__getitem__, forms))
    try:
        group = object.__new__(GroupTable)._check(labels, forms.index(identity), rows)
        return object.__new__(GroupAction)._check(group, carrier, forms)
    except ValueError:
        raise ValueError("the permutations are not closed under composition") from None


def _transport(g: GroupTable, images: Sequence[str], elements: Sequence[str]) -> GroupTable:
    """The group on `elements` that the bijection from g's elements onto
    them, the element of index i going to images[i], makes isomorphic to g:
    images[a].images[b] = images[a.b], tabulated over g's element indices."""
    back, rows = {y: i for i, y in enumerate(images)}, g._rows
    mul = lambda a, b: rows[a][b]
    return tabulate([back[y] for y in elements], g._index[g.identity], mul, images.__getitem__)


def group_on_fiber(ga: GroupAction, e: str) -> GroupTable:
    """Transport the group structure onto the carrier along g -> g . e.

    The result lives on the carrier's elements with e as the identity and
    is isomorphic to the acting group.
    """
    if e not in ga.carrier.elements:
        raise UnknownElement(f"{e!r} is not a carrier element")
    images = [ga.apply(g, e) for g in ga.group.elements]
    return _transport(ga.group, images, ga.carrier.elements)


def relabel_group(g: GroupTable, d: str) -> GroupTable:
    """The group on the same elements with product x . d^-1 . y, making d
    the identity: the transport along x -> x . d; isomorphic to the
    original."""
    if d not in g.elements:
        raise UnknownElement(f"{d!r} is not an element")
    return _transport(g, [g.op(x, d) for x in g.elements], g.elements)
