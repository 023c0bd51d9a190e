"""Core carrier types: finite sets, bijections between them, and groupoid spines.

A spine is a linearly ordered family of finite sets together with bijection
families on a pair relation, relatively closed under identity, inverse, and
composition. All values are immutable; every operation is a pure function.

Soft size targets: up to 8 objects, carriers up to 64 elements, up to 4096
morphisms per pair. Larger inputs run but are untested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class FiniteSet:
    """A named finite set with a fixed element order."""

    id: str
    elements: tuple[str, ...]

    def __init__(self, id: str, elements: Iterable[str]):
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "elements", tuple(str(e) for e in elements))
        if not self.elements:
            raise ValueError(f"set {self.id!r} has no elements")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"set {self.id!r} has duplicate element labels")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FiniteMap:
    """A bijection between two named sets, stored as a total mapping.

    The mapping must be injective; whether its domain and image agree with
    the named carrier sets is checked by spine validation, since a map on
    its own does not know the carriers.

    A map built by `indexed_map` (every map `load_spine` reads from the
    carriers, and every map the closure builds) holds only its indexed
    form and carriers; its graph is built when first read, and it behaves
    as the map built from that graph in every other respect.
    """

    source: str
    target: str
    graph: tuple[tuple[str, str], ...] = field(compare=True)

    # (source elements, target elements, indexed form)
    # of a map built by `indexed_map`
    _indexed = None

    def __init__(self, source: str, target: str, mapping: Mapping[str, str]):
        source, target = str(source), str(target)
        graph = tuple(sorted((str(x), str(y)) for x, y in mapping.items()))
        if len(set(map(itemgetter(1), graph))) != len(graph):
            raise ValueError(f"map {source!r}->{target!r} is not injective")
        self.__dict__.update(source=source, target=target, graph=graph, _dict=dict(graph))

    def __getattr__(self, name: str):
        # reached only while an indexed map's graph is unread
        if name not in ("graph", "_dict") or self._indexed is None:
            raise AttributeError(name)
        src, tgt, t = self._indexed
        graph = tuple(sorted(zip(src, map(tgt.__getitem__, t))))
        self.__dict__.update(graph=graph, _dict=dict(graph))
        return self.__dict__[name]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.graph)

    def __call__(self, x: str) -> str:
        return self._dict[x]

    def domain(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.graph)

    def image(self) -> frozenset[str]:
        return frozenset(y for _, y in self.graph)

    def graph_key(self) -> str:
        """Canonical key: the sorted pointwise listing of the map."""
        return ",".join(map(">".join, self.graph))

    def __repr__(self) -> str:
        return f"FiniteMap({self.source!r}->{self.target!r}, {self.graph_key()})"


# Indexed bijections: a map from a source carrier to a target carrier is the
# sequence t with t[x] = the index, in the target's element order, of the
# image of the x-th source element. A composite of two forms applies f first,
# then g: x -> g[f[x]]. Every permutation in the library is such a form: the
# maps of a spine, and the rows of a group's Cayley table (its left
# translations), its inversion map and the rows of its action tables. A form
# of a bijection between carriers of at most 256 points is `bytes`; any other
# is a tuple of ints, so the kind depends only on the carrier's size. Only
# `indexed_form`, `compose_indexed` and `invert_indexed` tell them apart, and
# every form is built by one of them, so the forms of one map are equal; the
# one exception is `document.load_spine`, which tests a mapping it reads for
# repeated images one way on bytes and another on tuples.
Indexed = bytes | tuple[int, ...]

_POINTS = bytes(range(256))


def indexed_form(images: Sequence[int], table: bool = False) -> Indexed:
    """The indexed form t with t[x] = images[x]: `bytes` when it has at most
    256 entries and every index fits in a byte, else a tuple of ints, so
    that the forms on one carrier of over 256 points are all tuples, even
    where a malformed one has only small indices. With `table`, a bytes
    form comes padded with the fixed points len(images)..255: the 256-byte
    table that `compose_indexed` applies as its second argument without
    padding it again. A tuple form is its own table."""
    if len(images) > 256:
        return tuple(images)
    try:
        form = bytes(images)
    except ValueError:  # an index past 255: a target carrier over 256 points
        return tuple(images)
    return form + _POINTS[len(form) :] if table else form


def element_index(elements: Sequence[str]) -> dict[str, int]:
    """Position of each element in a carrier's element order."""
    return {e: n for n, e in enumerate(elements)}


def encode(f: FiniteMap, src: Sequence[str], tgt: Sequence[str], index: Mapping) -> Indexed:
    """Indexed form of f (`indexed_form`), given the source and target
    elements in order and the target's `element_index`. A map built by
    `indexed_map` over equal carriers returns its stored form without
    reading its graph; any other map has its images looked up in one pass
    over src."""
    held = f._indexed
    if held is not None and held[0] == src and held[1] == tgt:
        return held[2]
    image = f._dict
    return indexed_form([index[image[x]] for x in src])


def indexed_map(
    source: str,
    target: str,
    src: tuple[str, ...],
    tgt: tuple[str, ...],
    t: Indexed,
) -> FiniteMap:
    """The FiniteMap source -> target whose indexed form over the element
    orders src and tgt is t, holding t and the carriers instead of its
    graph, which is built when first read.
    t is a form as `indexed_form` builds it (bytes for a target of at most
    256 points), so that `encode` returns a form equal to every other form
    of the map. t must be injective, as it is not checked: the reader checks
    the forms it reads, and every other caller builds bijections."""
    f = object.__new__(FiniteMap)
    f.__dict__.update(source=source, target=target, _indexed=(src, tgt, t))
    return f


def graph_keys(src: Sequence[str], tgt: Sequence[str]) -> Callable[[Indexed], str]:
    """The function taking an indexed form t over the element orders src
    and tgt to `graph_key` of its decoded map, without decoding it: each
    key fills the images into one "x>%s,..." pattern."""
    order = sorted(range(len(src)), key=src.__getitem__)
    pattern = ",".join(src[x].replace("%", "%%") + ">%s" for x in order)
    # itemgetter of one index returns the item, not a 1-tuple
    pick = itemgetter(*order) if len(order) > 1 else tuple
    image = tgt.__getitem__
    return lambda t: pattern % tuple(map(image, pick(t)))


def rank_keys(src: Sequence[str], tgt: Sequence[str]) -> Callable[[Indexed], Indexed] | None:
    """A sort key that orders the indexed forms of bijections between the
    element orders src and tgt (of one size) as `graph_keys` orders them,
    with no string built: the images in sorted source order, each as the
    rank of its target label y + ",", an indexed form itself, so that keys
    compare as bytes.

    The graph keys of two distinct bijections first differ at the image of
    one source label, and not at the last: bijections that agree on all
    points but one agree on that one too. So the differing images are both
    followed by ",", and with no "," in a target label the comparison ends
    inside y + ",". (At the end of a key a label compares as itself, which
    differs for a prefix followed by a character below ",": "1" < "1!" but
    "1!," < "1,"; no two bijections get that far.) Distinct forms get
    distinct keys. A target label holding "," lets the comparison run past
    the image, so there the key is None, and graph keys, which may then
    tie, are the order."""
    if "," in "".join(tgt):
        return None
    order = indexed_form(sorted(range(len(src)), key=src.__getitem__))
    ranked = [y + "," for y in tgt]
    by_label = indexed_form(sorted(range(len(tgt)), key=ranked.__getitem__))
    rank = indexed_form(invert_indexed(by_label), table=True)
    return lambda t: compose_indexed(compose_indexed(order, t), rank)


def compose_indexed(f: Indexed, g: Indexed) -> Indexed:
    """The indexed map x -> g[f[x]]: apply f first, then g, as forms of
    bijections between carriers of one size. On bytes this is one
    `bytes.translate` with g's table; g may be given as that table
    (`indexed_form(g, table=True)`), which is then not padded again."""
    if type(f) is bytes:
        return f.translate(g if len(g) == 256 else g + _POINTS[len(g) :])
    return tuple([g[y] for y in f])


def invert_indexed(f: Indexed) -> Indexed:
    """The inverse form, x -> the y with f[y] = x, of a bijection between
    carriers of one size. On bytes, `bytes.maketrans` builds the inverse's
    table, of which the first len(f) bytes are the form."""
    if type(f) is bytes:
        n = len(f)
        return bytes.maketrans(f, _POINTS[:n])[:n]
    inv = [0] * len(f)
    for x, y in enumerate(f):
        inv[y] = x
    return tuple(inv)


def adjoin(group: set, gens: list, s, mul: Callable, limit: float = inf) -> bool:
    """Enlarge, in place, the finite group `group` generated by `gens` by a
    new generator s not in it; `mul` is the group's product. Returns whether
    it stayed within `limit` elements; checked before each new element is
    multiplied, so a group outgrowing it stops at most |gens| elements past.
    Generators are only ever right factors, so s may be given in any shape
    `mul` takes there (an indexed form as its table, `indexed_form`).

    The coset group.s is disjoint from the group, so all of it is new; the
    rest follows by multiplying new elements by every generator on the right.
    """
    gens.append(s)
    new = [mul(g, s) for g in group]
    group.update(new)
    for h in new:  # grows while it is scanned
        if len(group) > limit:
            return False
        for t in gens:
            k = mul(h, t)
            if k not in group:
                group.add(k)
                new.append(k)
    return len(group) <= limit


def _span_loops(tree: dict, families: Iterable, limit: float = inf) -> tuple | None:
    """(G, loops adjoined), G the group at o0 spanned, in scan order, by the
    loops t_i, f, t_j^-1 of each (pair (i, j), indexed maps f) of `families`;
    None once G passes `limit`. `tree` maps o0 first, to 1, then each i to
    t_i: o0 -> i. Two compositions per map plus about |G| per generator;
    the maps t_j^-1 and the generators, only ever right factors, are held
    as tables (`indexed_form`)."""
    back = {o: indexed_form(invert_indexed(t), table=True) for o, t in tree.items()}
    group, gens = {next(iter(tree.values()))}, []
    for (i, j), maps in families:
        for f in maps:
            loop = compose_indexed(compose_indexed(tree[i], f), back[j])
            if loop in group:
                continue
            if not adjoin(group, gens, indexed_form(loop, table=True), compose_indexed, limit):
                return None
    return group, gens


@dataclass(frozen=True)
class GroupoidSpine:
    """Objects with a linear order, carrier sets, a pair relation, and
    morphism families.

    The object tuple order is the linear order. Construction checks only
    structural well-formedness (labels resolve, maps are injective);
    the groupoid axioms are checked by `validate_spine`, which reports
    violations as data.
    """

    objects: tuple[str, ...]
    sets: Mapping[str, FiniteSet]
    pairs: frozenset[tuple[str, str]]
    morphisms: Mapping[tuple[str, str], tuple[FiniteMap, ...]]

    def __init__(
        self,
        objects: Iterable[str],
        sets: Mapping[str, FiniteSet],
        pairs: Iterable[tuple[str, str]],
        morphisms: Mapping[tuple[str, str], Iterable[FiniteMap]],
    ):
        objs = tuple(str(o) for o in objects)
        if not objs:
            raise ValueError("spine has no objects")
        if len(set(objs)) != len(objs):
            raise ValueError("duplicate object labels")
        sets = dict(sets)
        if set(sets) != set(objs):
            missing = sorted(set(objs) - set(sets))
            extra = sorted(set(sets) - set(objs))
            raise ValueError(
                f"sets must be keyed by exactly the objects "
                f"(missing {missing}, extra {extra})"
            )
        prs = frozenset((str(i), str(j)) for i, j in pairs)
        for i, j in prs:
            if i not in sets or j not in sets:
                raise ValueError(f"pair ({i!r},{j!r}) names an unknown object")
        mors = {(str(k[0]), str(k[1])): tuple(v) for k, v in morphisms.items()}
        if set(mors) != prs:
            missing = sorted(prs - set(mors))
            extra = sorted(set(mors) - prs)
            raise ValueError(
                f"morphisms must be keyed by exactly the pairs "
                f"(missing {missing}, extra {extra})"
            )
        object.__setattr__(self, "objects", objs)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "pairs", prs)
        object.__setattr__(self, "morphisms", mors)

    def sorted_pairs(self) -> list[tuple[str, str]]:
        """Pairs in the canonical order: by position of i, then of j."""
        idx = {o: n for n, o in enumerate(self.objects)}
        return sorted(self.pairs, key=lambda p: (idx[p[0]], idx[p[1]]))


@dataclass(frozen=True)
class Violation:
    """One failed check, tagged with the axiom number (1-3) or None for
    structural checks, plus a concrete witness."""

    kind: str
    axiom: int | None
    pair: tuple[str, str] | None
    indices: tuple[int, ...]
    element: str | None
    message: str

    def render(self) -> str:
        tag = f"axiom{self.axiom}" if self.axiom else "structural"
        return f"{tag} {self.kind}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    # the vertex group G at o0 (a set of indexed maps) of a spine that the
    # vertex-group check passed; see `_spans_vertex_group`
    _group = None

    def render_lines(self) -> list[str]:
        if self.ok:
            return ["validation: pass"]
        lines = [f"validation: fail ({len(self.violations)} violations)"]
        lines += [f"  {v.render()}" for v in self.violations]
        return lines


def _spans_vertex_group(objs: Sequence[str], graphs: dict, indexed: dict) -> set | None:
    """G if sound, duplicate-free families on a relation that holds every
    increasing pair are found to be a groupoid restricted to their pairs,
    else None: found so iff each has n = |Mor(o0, l)| maps, l the last
    object, and their loops span a group G of at most n maps (`_span_loops`
    capped at n), with t_o0 = 1 and t_i the first map of Mor(o0, i).

    Each f in Mor(i, j) is t_i^-1, (its loop), t_j, so Mor(i, j) is all |G|
    maps t_i^-1, G, t_j, as Mor(o0, l) makes |G| = n; t_i^-1, g, t_j then
    t_j^-1, h, t_k is t_i^-1, gh, t_k (axiom 3), axioms 1 and 2 follow from
    g = 1 and g^-1. A groupoid of hom-sets passes: its loops lie in Mor(o0, o0).
    """
    o0, limit = objs[0], len(graphs[(objs[0], objs[-1])])
    if any(len(maps) != limit for maps in graphs.values()):
        return None
    tree = {o0: indexed_form(range(len(indexed[(o0, objs[-1])][0][1])))}
    tree |= {o: indexed[(o0, o)][0][1] for o in objs[1:]}
    span = _span_loops(tree, graphs.items(), limit)
    return None if span is None else span[0]


def _composable_triples(
    pair_order: list[tuple[str, str]], pairs: frozenset[tuple[str, str]]
) -> Iterator[tuple[tuple[str, str], tuple[str, str], tuple[str, str]]]:
    """The composable triples ((i, j), (j, k), (i, k)) of the relation
    `pairs`, listed in `pair_order`: by (i, j) in that order, then by
    (j, k). Each (i, j) meets only the pairs leaving j, so this takes
    |R| steps plus one per (i, j), (j, k) chain, where pairing every two
    pairs takes |R|^2."""
    leaving: dict[str, list[tuple[str, str]]] = {}
    for pair in pair_order:
        leaving.setdefault(pair[0], []).append(pair)
    for pa in pair_order:
        for pb in leaving.get(pa[1], ()):
            if (pa[0], pb[1]) in pairs:
                yield pa, pb, (pa[0], pb[1])


def validate_spine(spine: GroupoidSpine) -> ValidationReport:
    """Check every spine invariant and report all violations with witnesses.

    Checks, in order: pair coverage of the linear order, endpoint and
    bijectivity agreement of each map with its carriers, non-emptiness and
    duplicate-freeness of each family, then the three closure axioms
    (identity, inverse, composition). Composition and inverse checks skip
    maps that already failed structurally. Once every check up to the
    identities passed and the composition sweep has a triple, the
    vertex-group check (`_spans_vertex_group`: two compositions per map and
    about n per generator, n the family size, where the sweeps take n^2 per
    triple) stands in for both sweeps; they run only when it fails, so they
    alone report violations. A report it passed carries G, as `_group`.

    Maps are checked and compared as indexed forms over the carriers. An
    index-backed map over exactly X_i -> X_j, the two of one size, is
    total and onto as built; any other map has its keys and images
    compared with the carrier sets. The witnesses of a failure are built
    only then, so no passing map reads its graph or builds a set.
    """
    out: list[Violation] = []
    objs = spine.objects
    pairs = spine.pairs
    pair_order = spine.sorted_pairs()

    if not pairs:
        out.append(
            Violation(
                "EmptyRelation", None, None, (), None, "the pair relation is empty"
            )
        )
    for a in range(len(objs)):
        for b in range(a + 1, len(objs)):
            if (objs[a], objs[b]) not in pairs:
                out.append(
                    Violation(
                        "MissingPair",
                        None,
                        (objs[a], objs[b]),
                        (),
                        None,
                        f"pair ({objs[a]},{objs[b]}) with {objs[a]} < {objs[b]} "
                        "is not in the relation",
                    )
                )

    # each family's structurally sound maps, as (position, indexed form)
    elem_index = {o: element_index(spine.sets[o].elements) for o in objs}
    carriers = {o: frozenset(spine.sets[o].elements) for o in objs}
    indexed: dict[tuple[str, str], list[tuple[int, Indexed]]] = {}
    for pair in pair_order:
        i, j = pair
        xi, xj = spine.sets[i].elements, spine.sets[j].elements
        fams = spine.morphisms[pair]
        sound = indexed[pair] = []
        if not fams:
            out.append(
                Violation(
                    "EmptyMorphisms",
                    None,
                    pair,
                    (),
                    None,
                    f"Mor({i},{j}) is empty",
                )
            )
        seen: dict[Indexed, int] = {}
        for n, f in enumerate(fams):
            if f.source != i or f.target != j:
                out.append(
                    Violation(
                        "EndpointMismatch",
                        None,
                        pair,
                        (n,),
                        None,
                        f"Mor({i},{j})[{n}] is declared {f.source}->{f.target}",
                    )
                )
                continue
            held = f._indexed
            # an injective indexed form over exactly X_i -> X_j of one size
            # is total and onto: its stored tuple is the map
            if held is not None and held[0] == xi and held[1] == xj and len(xi) == len(xj):
                t = held[2]
            elif f._dict.keys() != carriers[i]:
                missing = sorted(carriers[i] - f.domain())
                extra = sorted(f.domain() - carriers[i])
                out.append(
                    Violation(
                        "DomainMismatch",
                        None,
                        pair,
                        (n,),
                        (missing + extra + [None])[0],
                        f"Mor({i},{j})[{n}] is not defined on exactly X_{i} "
                        f"(missing {missing}, extra {extra})",
                    )
                )
                continue
            # an injective map on X_i is onto X_j iff |X_i| = |X_j| and its
            # images lie in X_j
            elif len(xi) != len(xj) or not carriers[j].issuperset(f._dict.values()):
                missed = sorted(carriers[j] - f.image())
                out.append(
                    Violation(
                        "NotBijective",
                        None,
                        pair,
                        (n,),
                        missed[0] if missed else None,
                        f"Mor({i},{j})[{n}] does not map onto X_{j} "
                        f"(misses {missed})",
                    )
                )
                continue
            else:
                t = encode(f, xi, xj, elem_index[j])
            # over X_i -> X_j the indexed form and the graph determine each other
            if t in seen:
                out.append(
                    Violation(
                        "DuplicateMorphism",
                        None,
                        pair,
                        (seen[t], n),
                        None,
                        f"Mor({i},{j})[{n}] repeats the graph of index {seen[t]}",
                    )
                )
                continue
            seen[t] = n
            sound.append((n, t))

    # axiom 1: identities on diagonal pairs
    for o in objs:
        pair = (o, o)
        if pair not in pairs:
            continue
        ident = indexed_form(range(len(spine.sets[o].elements)))
        if not any(t == ident for _, t in indexed[pair]):
            out.append(
                Violation(
                    "MissingIdentity",
                    1,
                    pair,
                    (),
                    None,
                    f"({o},{o}) is in the relation but Mor({o},{o}) "
                    "lacks the identity map",
                )
            )

    # the sound maps' indexed forms, as sets, for the axiom sweeps (axiom 3
    # is quadratic in family sizes)
    graphs = {pair: {t for _, t in maps} for pair, maps in indexed.items()}

    if (
        not out
        and next(_composable_triples(pair_order, pairs), None)
        and (group := _spans_vertex_group(objs, graphs, indexed))
    ):
        report = ValidationReport(ok=True, violations=())
        report.__dict__["_group"] = group
        return report

    # axiom 2: inverses across symmetric pairs
    for pair in pair_order:
        i, j = pair
        back = (j, i)
        if back not in pairs:
            continue
        for n, t in indexed[pair]:
            if invert_indexed(t) not in graphs[back]:
                out.append(
                    Violation(
                        "MissingInverse",
                        2,
                        pair,
                        (n,),
                        None,
                        f"inverse of Mor({i},{j})[{n}] is absent from Mor({j},{i})",
                    )
                )

    # axiom 3: composites across composable pair triples
    compose_ = compose_indexed  # a local name for the quadratic sweep
    for pa, pb, pc in _composable_triples(pair_order, pairs):
        (i, j), k, targets = pa, pb[1], graphs[pc]
        for nf, tf in indexed[pa]:
            for ng, tg in indexed[pb]:
                if compose_(tf, tg) not in targets:
                    out.append(
                        Violation(
                            "ClosureViolation",
                            3,
                            pc,
                            (nf, ng),
                            None,
                            f"composite of Mor({i},{j})[{nf}] then "
                            f"Mor({j},{k})[{ng}] is absent from Mor({i},{k})",
                        )
                    )

    return ValidationReport(ok=not out, violations=tuple(out))
