"""The groupoid closure against a brute-force frontier closure, and its
output step against the decode-and-sort one it replaced.

`frontier_closure` is the closure the engine used before the vertex-group
construction: adjoin inverses on missing reverse pairs, seed missing
diagonals through the least other object, then compose every new map with
every map on every triple (i, j, k) until a round adds nothing. Its work
grows with the square of the output, so the inputs here stay small.

`decode_and_sort_closure` is the vertex-group closure as it was before its
output maps kept their indexed forms: every new map decoded into a
FiniteMap, every new family sorted by `FiniteMap.graph_key`, maps whose
keys tie in the order of their forms.

Both oracles read maps off their graphs into tuples of ints and compose
and invert them with the tuple helpers of conftest, so neither shares the
engine's indexed forms (bytes on carriers of at most 256 points).

`assert_closure_regularity` makes the literal per-pair regularity count on
every closure here, which `extend_to_groupoid` reads off the closure's
vertex group instead.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from conftest import (
    all_bijections_spine,
    catalog_upto,
    compose_tuples,
    decode,
    invert_tuple,
    translation_spine,
)
from spinekit.catalog import cyclic_group, symmetric_group
from spinekit.document import serialize_spine
from spinekit.extension import (
    _close_to_groupoid,
    _extend_unchecked,
    _regularity,
    _regularity_unchecked,
    extend_to_groupoid,
)
from spinekit.generators import (
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
)
from spinekit.model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    adjoin,
    element_index,
    encode,
)


def tuple_form(f: FiniteMap, src, index) -> tuple[int, ...]:
    """f as the tuple of the indices, in the target order `index`, of the
    images of the source elements src, read off its graph."""
    image = dict(f.graph)
    return tuple(index[image[x]] for x in src)


def frontier_closure(spine: GroupoidSpine) -> dict[tuple[str, str], set]:
    """The graphs of every Mor(i, j), i, j in I, of the groupoid generated
    by the spine's morphisms; every increasing pair must be present."""
    objs = spine.objects
    elems = {o: spine.sets[o].elements for o in objs}
    index = {o: element_index(elems[o]) for o in objs}
    mor = {
        (i, j): {tuple_form(f, elems[i], index[j]) for f in fams}
        for (i, j), fams in spine.morphisms.items()
    }
    for i, j in spine.sorted_pairs():
        if (j, i) not in spine.pairs:
            mor[(j, i)] = {invert_tuple(t) for t in mor[(i, j)]}
    for i in objs:
        if (i, i) in mor:
            continue
        k = next(o for o in objs if o != i)
        mor[(i, i)] = {
            compose_tuples(f, g) for f in mor[(i, k)] for g in mor[(k, i)]
        }

    frontier = {pair: set(maps) for pair, maps in mor.items()}
    while True:
        new: dict[tuple[str, str], set] = {}

        def emit(pair, t):
            if t not in mor[pair]:
                new.setdefault(pair, set()).add(t)

        for (i, j), front_ij in frontier.items():
            for t in front_ij:
                emit((j, i), invert_tuple(t))
        for i in objs:
            for j in objs:
                for k in objs:
                    front_f = frontier.get((i, j), ())
                    for f in front_f:
                        for g in mor[(j, k)]:
                            emit((i, k), compose_tuples(f, g))
                    for g in frontier.get((j, k), ()):
                        for f in mor[(i, j)]:
                            if f not in front_f:  # else composed above
                                emit((i, k), compose_tuples(f, g))
        if not new:
            break
        for pair, maps in new.items():
            mor[pair].update(maps)
        frontier = new

    return {
        (i, j): {decode(t, i, j, elems[i], elems[j]).graph for t in mor[(i, j)]}
        for i in objs
        for j in objs
    }


def assert_closure_regularity(spine: GroupoidSpine, result) -> None:
    """The per-pair counts of the closure agree with its vertex group G =
    Mor(o0, o0) being sharply transitive, tested point pair by point pair,
    and with the report `extend_to_groupoid` makes from G; on three or more
    objects a regular input closes to a regular groupoid."""
    ext = result.extended
    counted = _regularity_unchecked(ext)
    elems = ext.sets[ext.objects[0]].elements
    index = element_index(elems)
    group = {encode(f, elems, elems, index) for f in ext.morphisms[(ext.objects[0],) * 2]}
    points = range(len(elems))
    sharp = all(sum(g[x] == y for g in group) == 1 for x in points for y in points)
    assert counted.regular == sharp
    assert _regularity(ext, group) == counted
    if len(spine.objects) >= 3 and _regularity_unchecked(spine).regular:
        assert counted.regular


def assert_matches_oracle(spine: GroupoidSpine, result) -> None:
    assert_closure_regularity(spine, result)
    expected = frontier_closure(spine)
    ext = result.extended
    assert ext.pairs == set(expected)
    for pair, graphs in expected.items():
        assert {f.graph for f in ext.morphisms[pair]} == graphs, pair
    for pair in spine.pairs:
        before = {f.graph for f in spine.morphisms[pair]}
        gained = {f.graph for f in result.added_morphisms.get(pair, ())}
        assert gained == expected[pair] - before, pair
    assert result.conservative == (not result.added_morphisms)


def relabel_carriers(spine: GroupoidSpine, data, pool=None) -> GroupoidSpine:
    """The same spine seen through a drawn bijection of each carrier onto
    fresh labels (drawn from `pool` when given), listed in a drawn order, so
    that carriers differ and the maps of a pair no longer form a group of
    permutations of one label set."""
    sigma, sets = {}, {}
    for o in spine.objects:
        elems = spine.sets[o].elements
        fresh = [f"{o}.{x}" for x in elems] if pool is None else pool
        labels = data.draw(st.permutations(fresh))[: len(elems)]
        sigma[o] = dict(zip(elems, labels))
        sets[o] = FiniteSet(o, data.draw(st.permutations(labels)))
    morphisms = {
        (i, j): tuple(
            FiniteMap(i, j, {sigma[i][x]: sigma[j][y] for x, y in f.graph})
            for f in fams
        )
        for (i, j), fams in spine.morphisms.items()
    }
    return GroupoidSpine(spine.objects, sets, spine.pairs, morphisms)


small_groups = st.sampled_from([g for _, g in catalog_upto(12)])


@given(small_groups, st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_group_action_spines(group, objects, data):
    spine = gen_group_action_spine(group, objects)
    assert_matches_oracle(spine, extend_to_groupoid(spine))
    relabeled = relabel_carriers(spine, data)
    assert_matches_oracle(relabeled, extend_to_groupoid(relabeled))


@given(st.integers(2, 4), st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_all_bijection_spines(points, objects):
    spine = all_bijections_spine(points, objects)
    assert_matches_oracle(spine, _extend_unchecked(spine)[0])


def check_non_coset_latin(order: int, seed: int) -> None:
    spine = latin_family_spine(gen_latin_square_family(order, False, seed))
    result = extend_to_groupoid(spine)
    assert not result.conservative
    assert_matches_oracle(spine, result)


@given(st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_non_coset_latin_order5(seed):
    check_non_coset_latin(5, seed)


@given(st.integers(0, 10**6))
@settings(max_examples=2, deadline=None)  # the oracle takes seconds at order 6
def test_non_coset_latin_order6(seed):
    check_non_coset_latin(6, seed)


@given(small_groups, st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_extended_groupoid_fed_back(group, objects):
    full = extend_to_groupoid(gen_group_action_spine(group, objects)).extended
    again = extend_to_groupoid(full)
    assert again.conservative
    assert again.extended.morphisms == full.morphisms
    assert_matches_oracle(full, again)


def test_complete_families_keep_their_own_maps():
    spine = gen_group_action_spine(symmetric_group(3), 3)
    full = extend_to_groupoid(spine).extended
    for source in (spine, full):
        closed, *_ = _close_to_groupoid(source)
        for pair, fams in source.morphisms.items():
            own = sorted(fams, key=FiniteMap.graph_key)
            kept = closed.morphisms[pair]
            assert len(kept) == len(own) and all(a is b for a, b in zip(kept, own))


def test_repeated_map_in_a_family():
    base = translation_spine(3, 3)
    s0, s1, s2 = base.morphisms[("1", "2")]
    # |G| entries with one repeated, and |G| distinct maps with one repeated
    for family in [(s0, s1, s1), (s0, s1, s2, s1)]:
        morphisms = dict(base.morphisms) | {("1", "2"): family}
        spine = GroupoidSpine(base.objects, base.sets, base.pairs, morphisms)
        result, _ = _extend_unchecked(spine)
        assert_matches_oracle(spine, result)
        for fams in result.extended.morphisms.values():
            assert len({f.graph for f in fams}) == len(fams) == 3


def decode_and_sort_closure(spine: GroupoidSpine):
    """(closed morphisms, iterations, added maps per input pair) as
    `extension._extend_unchecked` computed them before the closure kept
    its output indexed."""
    objs = spine.objects
    o0 = objs[0]
    elems = {o: spine.sets[o].elements for o in objs}
    index = {o: element_index(elems[o]) for o in objs}
    identity = tuple(range(len(elems[o0])))
    inputs = {
        (i, j): sorted(spine.morphisms[(i, j)], key=FiniteMap.graph_key)
        for i, j in spine.sorted_pairs()
    }
    ordered = {
        (i, j): [tuple_form(f, elems[i], index[j]) for f in fams]
        for (i, j), fams in inputs.items()
    }
    tree = {o0: identity} | {o: ordered[(o0, o)][0] for o in objs[1:]}
    back = {o: invert_tuple(t) for o, t in tree.items()}
    group, gens = {identity}, []
    for (i, j), maps in ordered.items():
        for f in maps:
            loop = compose_tuples(compose_tuples(tree[i], f), back[j])
            if loop not in group:
                adjoin(group, gens, loop, compose_tuples)
    morphisms = {}
    for i in objs:
        from_i = [compose_tuples(back[i], g) for g in group]
        for j in objs:
            kept = dict(zip(ordered.get((i, j), ()), inputs.get((i, j), ())))
            if len(kept) == len(group):
                morphisms[(i, j)] = tuple(kept.values())
                continue
            maps = [
                (decode(t, i, j, elems[i], elems[j]), t)
                for t in (compose_tuples(h, tree[j]) for h in from_i)
            ]
            maps.sort(key=lambda ft: (ft[0].graph_key(), ft[1]))
            morphisms[(i, j)] = tuple(f for f, _ in maps)
    added = {}
    for pair in spine.sorted_pairs():
        before = {f.graph for f in spine.morphisms[pair]}
        gained = [f for f in morphisms[pair] if f.graph not in before]
        if gained:
            added[pair] = tuple(gained)
    return morphisms, 1 + len(gens), added


# labels whose graph keys sort apart from their carrier order and from their
# indices: separators inside labels, a prefix beside its extensions, digits
# that sort apart from their values, non-ASCII
HOSTILE = ["1", "1!", "10", "2", ",", ">", "a,b", "a>b", ",>", "é", "Ω>", "ü,1"]


def hostile_spine(data) -> GroupoidSpine:
    """A drawn order-5 non-coset Latin family, S3 or Z6 action spine on 2-3
    objects, or all-bijection spine, its carriers relabeled onto hostile
    labels."""
    kind = data.draw(st.sampled_from(["latin", "action", "all"]))
    if kind == "latin":
        seed = data.draw(st.integers(0, 10**6))
        spine = latin_family_spine(gen_latin_square_family(5, False, seed))
    elif kind == "action":
        group = data.draw(st.sampled_from([symmetric_group(3), cyclic_group(6)]))
        spine = gen_group_action_spine(group, data.draw(st.integers(2, 3)))
    else:
        spine = all_bijections_spine(3, data.draw(st.integers(2, 3)))
    return relabel_carriers(spine, data, HOSTILE)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_closure_matches_decode_and_sort(data):
    spine = hostile_spine(data)
    result, _ = _extend_unchecked(spine)
    assert_closure_regularity(spine, result)
    morphisms, iterations, added = decode_and_sort_closure(spine)
    closed = result.extended
    assert result.iterations == iterations
    assert closed.morphisms == morphisms  # the same maps, in the same order
    assert result.added_morphisms == added
    for pair, fams in morphisms.items():
        got = [f.graph_key() for f in closed.morphisms[pair]]
        assert got == [f.graph_key() for f in fams], pair
    oracle = GroupoidSpine(closed.objects, closed.sets, closed.pairs, morphisms)
    assert serialize_spine(closed) == serialize_spine(oracle)
