"""Core types: the string-graph reference algebra, indexed maps, and the
spine validator."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import spinekit.model as model
from conftest import (
    catalog_upto,
    compose,
    invert,
    same_morphism_sets,
    shift_map,
    translation_spine,
    trivial_spine,
)
from spinekit.catalog import symmetric_group
from spinekit.document import load_spine, serialize_spine
from spinekit.extension import check_regularity, extend_to_groupoid, symmetric_closure
from spinekit.generators import (
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from spinekit.model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    validate_spine,
)


def bijections(labels: list[str], src: str = "a", tgt: str = "b") -> list[FiniteMap]:
    return [
        FiniteMap(src, tgt, dict(zip(labels, perm)))
        for perm in permutations(labels)
    ]


class TestFiniteSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteSet("s", ["a", "b", "a"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteSet("s", [])


class TestFiniteMap:
    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            FiniteMap("a", "b", {"x": "u", "y": "u"})

    def test_graph_is_canonical(self):
        f = FiniteMap("a", "b", {"y": "x", "x": "y"})
        g = FiniteMap("a", "b", {"x": "y", "y": "x"})
        assert f == g
        assert f.graph_key() == "x>y,y>x"

    def test_call(self):
        f = FiniteMap("a", "b", {"x": "y", "y": "z", "z": "x"})
        assert f("x") == "y" and f("z") == "x"


# labels whose graph keys interleave: separators inside labels, a prefix
# beside its extensions, digits that sort apart from their values, non-ASCII,
# format markers
HOSTILE = [",", ">", "1", "1!", "10", "2", "a,b", "a>b", ",>", "é", "Ω>", "x y", "%", "%s"]


@st.composite
def carriers_and_map(draw):
    """Source and target element orders over hostile labels, and an
    indexed map between them, built as the engine builds its forms."""
    n = draw(st.integers(1, 6))
    src = tuple(draw(st.permutations(HOSTILE))[:n])
    tgt = tuple(draw(st.permutations(HOSTILE))[:n])
    return src, tgt, model.indexed_form(draw(st.permutations(range(n))))


class TestIndexedMap:
    """`model.indexed_map` holds an indexed form; its graph is built when
    first read, through any entry point."""

    READS = [
        lambda f: f.graph,
        lambda f: f.mapping,
        lambda f: f.domain(),
        lambda f: f.image(),
        lambda f: f.graph_key(),
        lambda f: repr(f),
        lambda f: hash(f),
        lambda f: [f(x) for x, _ in f.graph],
    ]

    @staticmethod
    def pair(src, tgt, t):
        index = model.element_index(tgt)
        lazy = model.indexed_map("a", "b", src, tgt, index, t)
        eager = FiniteMap("a", "b", {x: tgt[y] for x, y in zip(src, t)})
        return lazy, eager

    @given(carriers_and_map())
    @settings(max_examples=200)
    def test_equals_the_eager_map(self, case):
        src, tgt, t = case
        for read in self.READS:  # each read first, on a fresh map
            lazy, eager = self.pair(src, tgt, t)
            assert read(lazy) == read(eager)
            assert lazy == eager and eager == lazy
        lazy, eager = self.pair(src, tgt, t)
        assert hash(lazy) == hash(eager) and len({lazy, eager}) == 1
        assert (lazy.source, lazy.target) == (eager.source, eager.target)

    @given(carriers_and_map())
    @settings(max_examples=200)
    def test_graph_key_from_the_indexed_form(self, case):
        src, tgt, t = case
        lazy, eager = self.pair(src, tgt, t)
        literal = ",".join(f"{x}>{y}" for x, y in eager.graph)
        assert model.graph_keys(src, tgt)(t) == eager.graph_key() == literal
        assert "graph" not in vars(lazy)

    @given(carriers_and_map(), st.data())
    @settings(max_examples=200)
    def test_encode_checks_the_carriers(self, case, data):
        src, tgt, t = case
        lazy, eager = self.pair(src, tgt, t)
        assert model.encode(lazy, src, model.element_index(tgt)) == t
        assert "graph" not in vars(lazy)  # the stored form, not a decode
        for s, g in [
            (data.draw(st.permutations(src)), tgt),
            (src, data.draw(st.permutations(tgt))),
        ]:
            index = model.element_index(g)
            assert model.encode(lazy, s, index) == model.encode(eager, s, index)

    def test_encode_takes_the_general_path_on_other_orders(self):
        t = model.indexed_form((2, 0, 1))
        lazy, eager = self.pair(("1", "10", "1!"), ("x", "y", "z"), t)
        for src, tgt in [
            (("1!", "10", "1"), ("x", "y", "z")),
            (("1", "10", "1!"), ("z", "y", "x")),
        ]:
            index = model.element_index(tgt)
            assert model.encode(lazy, src, index) == model.encode(eager, src, index)
            assert model.encode(lazy, src, index) != t


# characters whose labels interleave in graph keys: "!" and " " sort below
# ",", so "1" and "1!" compare one way alone and the other way before ","
RANK_CHARS = ["1", "!", " ", ">", "%", "s", "é", "Ω", "a", "0"]


@st.composite
def ranked_carriers(draw):
    """Source and target element orders over hostile labels, sometimes a
    "," in a label of either, and distinct indexed bijections between
    them; one case in ten on 300 points, where the forms are tuples."""
    big = draw(st.integers(0, 9)) == 0
    n = 300 if big else draw(st.integers(1, 7))

    def carrier(comma):
        chars = RANK_CHARS + [","] if comma else RANK_CHARS
        label = st.text(st.sampled_from(chars), min_size=1, max_size=3)
        if big:  # distinct by a numbered suffix, then shuffled
            head = draw(st.lists(label, min_size=8, max_size=8))
            labels = [head[k % 8] + str(k) for k in range(n)]
            return tuple(draw(st.randoms()).sample(labels, n))
        return tuple(draw(st.lists(label, min_size=n, max_size=n, unique=True)))

    src, tgt = carrier(draw(st.booleans())), carrier(draw(st.integers(0, 3)) == 0)
    rng = draw(st.randoms())
    forms = {model.indexed_form(rng.sample(range(n), n)) for _ in range(draw(st.integers(1, 12)))}
    return src, tgt, list(forms)


class TestRankKeys:
    """`model.rank_keys` orders forms as their graph keys order them."""

    @given(ranked_carriers())
    @settings(max_examples=300, deadline=None)
    def test_orders_as_the_graph_keys(self, case):
        src, tgt, forms = case
        key = model.rank_keys(src, tgt)
        if any("," in y for y in tgt):
            assert key is None
            return
        assert sorted(forms, key=key) == sorted(forms, key=model.graph_keys(src, tgt))
        assert len(set(map(key, forms))) == len(forms)
        assert all(type(key(t)) is type(t) for t in forms)

    def test_a_comma_in_a_target_label_leaves_graph_keys(self):
        # "x>a,b,y>a" < "x>a,y>a,b": the comparison runs past the image "a"
        # into the next source label, so no rank of the labels orders them
        src, tgt = ("x", "y"), ("a", "a,b")
        forms = [model.indexed_form([0, 1]), model.indexed_form([1, 0])]
        assert model.rank_keys(src, tgt) is None
        assert sorted(forms, key=model.graph_keys(src, tgt)) == forms[::-1]

    def test_prefix_labels_before_a_comma(self):
        # "1!," < "1,": the map sending x to "1!" comes first
        src, tgt = ("x", "y"), ("1", "1!")
        forms = [model.indexed_form([0, 1]), model.indexed_form([1, 0])]
        want = forms[::-1]
        assert sorted(forms, key=model.graph_keys(src, tgt)) == want
        assert sorted(forms, key=model.rank_keys(src, tgt)) == want


@st.composite
def relations(draw):
    """Object labels in a drawn order, and a relation on them."""
    objs = draw(st.permutations(["b", "a", "d", "c", "e"]))[: draw(st.integers(1, 5))]
    pairs = draw(st.sets(st.tuples(st.sampled_from(objs), st.sampled_from(objs))))
    return objs, frozenset(pairs)


@given(relations())
@settings(max_examples=300)
def test_composable_triples_in_the_order_of_the_pair_sweep(case):
    objs, pairs = case
    idx = {o: n for n, o in enumerate(objs)}
    pair_order = sorted(pairs, key=lambda p: (idx[p[0]], idx[p[1]]))
    want = [
        (pa, pb, (pa[0], pb[1]))
        for pa in pair_order
        for pb in pair_order
        if pb[0] == pa[1] and (pa[0], pb[1]) in pairs
    ]
    assert list(model._composable_triples(pair_order, pairs)) == want


class TestCompose:
    """The string-graph reference that `compose_indexed` is checked against."""

    def test_identity_then_swap(self):
        ident = FiniteMap("a", "a", {"a": "a", "b": "b"})
        swap = FiniteMap("a", "a", {"a": "b", "b": "a"})
        assert compose(ident, swap) == swap

    def test_modular_shifts(self):
        f = shift_map("a", "a", 5, 1)
        g = shift_map("a", "a", 5, 2)
        assert compose(f, g) == shift_map("a", "a", 5, 3)

    def test_cycles_pointwise_oracle(self):
        cycle = FiniteMap("a", "a", {"a": "b", "b": "c", "c": "a"})
        got = compose(cycle, cycle)
        # oracle: evaluate both steps on each of the three points
        expected = {x: cycle(cycle(x)) for x in ("a", "b", "c")}
        assert got.mapping == expected
        assert expected == {"a": "c", "b": "a", "c": "b"}

    def test_associative_exhaustive_size3(self):
        maps = bijections(["0", "1", "2"], "a", "a")
        for f in maps:
            for g in maps:
                fg = compose(f, g)
                for h in maps:
                    assert compose(fg, h) == compose(f, compose(g, h))


class TestInvert:
    """The string-graph reference that `invert_indexed` is checked against."""

    def test_identity(self):
        ident = FiniteMap("a", "a", {"x": "x", "y": "y"})
        assert invert(ident) == ident

    def test_modular(self):
        assert invert(shift_map("a", "a", 6, 2)) == shift_map("a", "a", 6, 4)

    def test_cycle_pointwise(self):
        cycle = FiniteMap("a", "a", {"a": "b", "b": "c", "c": "a"})
        inv = invert(cycle)
        for x in ("a", "b", "c"):
            assert inv(cycle(x)) == x
        assert inv.mapping == {"a": "c", "b": "a", "c": "b"}

    def test_swaps_endpoints(self):
        f = FiniteMap("a", "b", {"x": "u"})
        assert invert(f).source == "b" and invert(f).target == "a"

    def test_consistent_with_compose(self):
        maps = bijections(["0", "1", "2"], "a", "a")
        for f in maps:
            for g in maps:
                assert invert(compose(f, g)) == compose(invert(g), invert(f))


class TestValidate:
    def test_trivial_spine_passes(self):
        assert validate_spine(trivial_spine()).ok

    def test_translation_spine_passes(self, z3_spine):
        report = validate_spine(z3_spine)
        assert report.ok and not report.violations
        # independent oracle: every one of the 27 composition triples is
        # present as a morphism graph on (1,3)
        graphs_13 = {f.graph for f in z3_spine.morphisms[("1", "3")]}
        for f in z3_spine.morphisms[("1", "2")]:
            for g in z3_spine.morphisms[("2", "3")]:
                composite = {x: g(f(x)) for x in ("0", "1", "2")}
                assert FiniteMap("1", "3", composite).graph in graphs_13

    def test_missing_composition_is_closure_violation(self, z3_spine):
        morphisms = {p: list(z3_spine.morphisms[p]) for p in z3_spine.pairs}
        # drop x -> x+2 from Mor(1,3); +1 after +1 now has no composite
        del morphisms[("1", "3")][2]
        broken = GroupoidSpine(
            z3_spine.objects, z3_spine.sets, z3_spine.pairs, morphisms
        )
        report = validate_spine(broken)
        assert not report.ok
        closure = [v for v in report.violations if v.kind == "ClosureViolation"]
        assert closure and all(v.axiom == 3 and v.pair == ("1", "3") for v in closure)
        assert any(v.indices == (1, 1) for v in closure)

    def test_pair_coverage(self):
        sets = {o: FiniteSet(o, ["x"]) for o in ("1", "2")}
        ident = FiniteMap("1", "1", {"x": "x"})
        spine = GroupoidSpine(["1", "2"], sets, [("1", "1")], {("1", "1"): (ident,)})
        report = validate_spine(spine)
        kinds = {v.kind for v in report.violations}
        assert "MissingPair" in kinds

    def test_empty_relation(self):
        sets = {"1": FiniteSet("1", ["x"])}
        spine = GroupoidSpine(["1"], sets, [], {})
        report = validate_spine(spine)
        assert any(v.kind == "EmptyRelation" for v in report.violations)

    def test_missing_identity(self):
        sets = {"1": FiniteSet("1", ["x", "y"])}
        swap = FiniteMap("1", "1", {"x": "y", "y": "x"})
        spine = GroupoidSpine(["1"], sets, [("1", "1")], {("1", "1"): (swap,)})
        report = validate_spine(spine)
        assert any(
            v.kind == "MissingIdentity" and v.axiom == 1 for v in report.violations
        )

    def test_missing_inverse(self):
        sets = {o: FiniteSet(o, ["x", "y"]) for o in ("1", "2")}
        swap = FiniteMap("1", "2", {"x": "y", "y": "x"})
        ident_back = FiniteMap("2", "1", {"x": "x", "y": "y"})
        spine = GroupoidSpine(
            ["1", "2"],
            sets,
            [("1", "2"), ("2", "1")],
            {("1", "2"): (swap,), ("2", "1"): (ident_back,)},
        )
        report = validate_spine(spine)
        assert any(
            v.kind == "MissingInverse" and v.axiom == 2 for v in report.violations
        )

    def test_duplicate_and_empty_families(self):
        sets = {o: FiniteSet(o, ["x"]) for o in ("1", "2")}
        f = FiniteMap("1", "2", {"x": "x"})
        spine = GroupoidSpine(
            ["1", "2"], sets, [("1", "2")], {("1", "2"): (f, f)}
        )
        report = validate_spine(spine)
        assert any(v.kind == "DuplicateMorphism" for v in report.violations)

        spine2 = GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): ()})
        assert any(
            v.kind == "EmptyMorphisms" for v in validate_spine(spine2).violations
        )

    def test_structural_map_problems(self):
        sets = {
            "1": FiniteSet("1", ["x", "y"]),
            "2": FiniteSet("2", ["u", "v"]),
        }
        wrong_endpoints = FiniteMap("2", "1", {"u": "x", "v": "y"})
        wrong_domain = FiniteMap("1", "2", {"x": "u", "z": "v"})
        not_onto = FiniteMap("1", "2", {"x": "u", "y": "w"})
        ok = FiniteMap("1", "2", {"x": "u", "y": "v"})
        spine = GroupoidSpine(
            ["1", "2"],
            sets,
            [("1", "2")],
            {("1", "2"): (wrong_endpoints, wrong_domain, not_onto, ok)},
        )
        kinds = {v.kind: v for v in validate_spine(spine).violations}
        assert "EndpointMismatch" in kinds
        assert "DomainMismatch" in kinds
        assert "NotBijective" in kinds

    def test_structural_parse_errors(self):
        with pytest.raises(ValueError):
            GroupoidSpine(["1", "1"], {"1": FiniteSet("1", ["x"])}, [], {})
        with pytest.raises(ValueError):
            GroupoidSpine(["1"], {}, [], {})
        with pytest.raises(ValueError):
            GroupoidSpine(
                ["1"], {"1": FiniteSet("1", ["x"])}, [("1", "2")], {("1", "2"): ()}
            )

    def test_validator_lists_all_violations(self, z3_spine):
        morphisms = {p: list(z3_spine.morphisms[p]) for p in z3_spine.pairs}
        del morphisms[("1", "3")][2]
        del morphisms[("1", "3")][1]
        broken = GroupoidSpine(
            z3_spine.objects, z3_spine.sets, z3_spine.pairs, morphisms
        )
        report = validate_spine(broken)
        # +1+0, +0+1, +2+2 now miss +1; +1+1, +2+0, +0+2 miss +2
        assert len([v for v in report.violations if v.kind == "ClosureViolation"]) == 6


def eager_form(spine: GroupoidSpine) -> GroupoidSpine:
    """The spine with every map rebuilt from its graph, none index-backed."""
    morphisms = {
        p: [FiniteMap(f.source, f.target, f.mapping) for f in fams]
        for p, fams in spine.morphisms.items()
    }
    return GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)


def assert_same_reports(lazy: GroupoidSpine, eager: GroupoidSpine) -> None:
    assert all(f._indexed is None for fams in eager.morphisms.values() for f in fams)
    want, got = validate_spine(eager), validate_spine(lazy)
    assert got == want and got.render_lines() == want.render_lines()


class TestValidateIndexedForm:
    """Index-backed maps are validated on their stored indexed forms; the
    reports are those of the same maps built from their graphs."""

    @staticmethod
    def reloaded(spine: GroupoidSpine) -> GroupoidSpine:
        """The spine as `load_spine` reads it: a map whose keys are its
        source carrier and whose images lie in its target is index-backed."""
        return load_spine(serialize_spine(spine))[0]

    def test_unequal_carriers(self):
        # injective into a larger carrier: not onto
        sets = {"1": FiniteSet("1", ["a", "b"]), "2": FiniteSet("2", ["x", "y", "z"])}
        maps = [{"a": "x", "b": "y"}, {"a": "z", "b": "x"}]
        spine = GroupoidSpine(
            ["1", "2"], sets, [("1", "2")],
            {("1", "2"): [FiniteMap("1", "2", m) for m in maps]},
        )
        lazy = self.reloaded(spine)
        assert all(f._indexed is not None for f in lazy.morphisms[("1", "2")])
        assert_same_reports(lazy, eager_form(spine))
        assert [v.kind for v in validate_spine(lazy).violations] == ["NotBijective"] * 2

    def test_duplicate_in_a_mixed_family(self):
        sets = {o: FiniteSet(o, ["p", "q", "r"]) for o in ("1", "2")}
        elems, index = sets["2"].elements, model.element_index(sets["2"].elements)
        lazy = lambda t: model.indexed_map("1", "2", elems, elems, index, model.indexed_form(t))
        eager = lambda t: FiniteMap("1", "2", {x: elems[y] for x, y in zip(elems, t)})
        for family, repeats in [
            ([lazy((1, 2, 0)), eager((1, 2, 0)), eager((2, 0, 1)), lazy((2, 0, 1))],
             [(0, 1), (2, 3)]),
            ([eager((0, 1, 2)), lazy((1, 0, 2)), lazy((0, 1, 2)), eager((1, 0, 2))],
             [(0, 2), (1, 3)]),
        ]:
            mixed = GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): family})
            report = validate_spine(mixed)
            assert [v.indices for v in report.violations] == repeats
            assert_same_reports(mixed, eager_form(mixed))

    def test_missing_identity(self, z3_spine):
        spine = extend_to_groupoid(z3_spine).extended
        morphisms = dict(spine.morphisms)
        morphisms[("2", "2")] = morphisms[("2", "2")][1:]  # the identity sorts first
        broken = GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)
        lazy = self.reloaded(broken)
        assert any(v.kind == "MissingIdentity" for v in validate_spine(lazy).violations)
        assert_same_reports(lazy, eager_form(broken))

    def test_permuted_carrier_order(self):
        # maps built through the API over another order of the carriers:
        # their stored tuples are not the forms over the spine's orders
        sets = {o: FiniteSet(o, ["a", "b", "c"]) for o in ("1", "2")}
        elems, back = sets["1"].elements, ("c", "a", "b")

        def over(src, tgt, i, j, mapping):
            t = model.indexed_form([tgt.index(mapping[x]) for x in src])
            return model.indexed_map(i, j, src, tgt, model.element_index(tgt), t)

        ident = {x: x for x in elems}
        shift = dict(zip(elems, elems[1:] + elems[:1]))
        pairs = [("1", "1"), ("1", "2")]
        for src, tgt in [(back, elems), (elems, back), (back, back)]:
            lazy = GroupoidSpine(
                ["1", "2"], sets, pairs,
                {(i, j): [over(src, tgt, i, j, m)] for (i, j), m in zip(pairs, [ident, shift])},
            )
            eager = GroupoidSpine(
                ["1", "2"], sets, pairs,
                {(i, j): [FiniteMap(i, j, m)] for (i, j), m in zip(pairs, [ident, shift])},
            )
            assert validate_spine(eager).ok
            assert_same_reports(lazy, eager)

    def test_perturbed_spines(self):
        spines = [gen_group_action_spine(g, k) for _, g in catalog_upto(8)[1:] for k in (2, 3)]
        spines += [latin_family_spine(gen_latin_square_family(5, False, s)) for s in range(3)]
        for spine in spines:
            for seed in range(4):
                mutant = perturb_spine(spine, seed)
                lazy = self.reloaded(mutant)
                assert any(f._indexed for fams in lazy.morphisms.values() for f in fams)
                assert_same_reports(lazy, eager_form(mutant))


def test_spine_graph_equality(z3_spine):
    reordered = {
        p: tuple(reversed(z3_spine.morphisms[p])) for p in z3_spine.pairs
    }
    other = GroupoidSpine(
        z3_spine.objects, z3_spine.sets, z3_spine.pairs, reordered
    )
    assert same_morphism_sets(z3_spine, other)
    assert same_morphism_sets(translation_spine(3), translation_spine(3))


def is_groupoid(spine: GroupoidSpine) -> bool:
    """Brute-force oracle: the relation is non-empty and holds every
    increasing pair, every family is a non-empty, duplicate-free list of
    bijections X_i -> X_j, and the families hold the identity on each
    diagonal pair present, the inverse wherever the reverse pair is present
    and the composite wherever (i, k) is present."""
    objs, sets, mor = spine.objects, spine.sets, spine.morphisms
    increasing = {(a, b) for n, a in enumerate(objs) for b in objs[n + 1 :]}
    if not spine.pairs or not increasing <= spine.pairs:
        return False
    for (i, j), fams in mor.items():
        if not fams or len(set(fams)) != len(fams):
            return False
        for f in fams:
            if (
                (f.source, f.target) != (i, j)
                or f.domain() != set(sets[i].elements)
                or f.image() != set(sets[j].elements)
            ):
                return False
    members = {pair: set(fams) for pair, fams in mor.items()}
    identity = {o: FiniteMap(o, o, {x: x for x in sets[o].elements}) for o in objs}
    return (
        all(identity[i] in members[(i, j)] for i, j in mor if i == j)
        and all(
            invert(f) in members[(j, i)]
            for (i, j), fams in mor.items()
            if (j, i) in members
            for f in fams
        )
        and all(
            compose(f, g) in members[(i, k)]
            for (i, j) in mor
            for (j2, k) in mor
            if j2 == j and (i, k) in members
            for f in mor[(i, j)]
            for g in mor[(j, k)]
        )
    )


@st.composite
def spines(draw) -> GroupoidSpine:
    """Catalog group-action spines as `gen` writes them (order <= 12, 1-4
    objects), their symmetric closures and their closures, and non-coset
    Latin families of orders 5 and 6."""
    shape = draw(st.sampled_from(["input", "symmetric", "closed", "latin"]))
    if shape == "latin":
        order, seed = draw(st.sampled_from([5, 6])), draw(st.integers(0, 40))
        return latin_family_spine(gen_latin_square_family(order, False, seed))
    group = draw(st.sampled_from([g for _, g in catalog_upto(12)]))
    spine = gen_group_action_spine(group, draw(st.integers(1, 4)))
    if shape == "symmetric":
        return symmetric_closure(spine)
    if shape == "closed":
        return extend_to_groupoid(spine).extended
    return spine


class TestVertexGroupValidation:
    """A spine whose checks up to the identities pass and whose relation has
    a composable triple is checked through its vertex group first; the axiom
    sweeps run only when that check fails."""

    @given(
        spines(),
        st.one_of(st.none(), st.integers(0, 10**6)),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, spine, seed, extra, data):
        if seed is not None:
            spine = perturb_spine(spine, seed)
        # a drawn family order moves the tree maps and the first map of G
        morphisms = {
            pair: data.draw(st.permutations(fams))
            for pair, fams in sorted(spine.morphisms.items())
        }
        if extra:  # a drawn bijection added to a drawn family
            i, j = data.draw(st.sampled_from(spine.sorted_pairs()))
            images = data.draw(st.permutations(spine.sets[j].elements))
            f = FiniteMap(i, j, dict(zip(spine.sets[i].elements, images)))
            if f not in morphisms[(i, j)]:
                morphisms[(i, j)].append(f)
        spine = GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)
        assert validate_spine(spine).ok == is_groupoid(spine)

    def test_identity_without_closure_is_caught(self):
        # every Mor(i, j) is {id, (0 1 2)}: it holds the identity and maps
        # onto itself under every t_i^-1, g, t_j, but is not closed
        objs, points = ["1", "2", "3"], ["0", "1", "2"]
        sets = {o: FiniteSet(o, points) for o in objs}
        pairs = [(i, j) for i in objs for j in objs]
        morphisms = {
            (i, j): (
                FiniteMap(i, j, {x: x for x in points}),
                FiniteMap(i, j, {"0": "1", "1": "2", "2": "0"}),
            )
            for i, j in pairs
        }
        spine = GroupoidSpine(objs, sets, pairs, morphisms)
        assert not is_groupoid(spine)
        expected = ["validation: fail (36 violations)"]
        expected += [
            f"  axiom2 MissingInverse: inverse of Mor({i},{j})[1] is absent "
            f"from Mor({j},{i})"
            for i, j in pairs
        ]
        expected += [
            f"  axiom3 ClosureViolation: composite of Mor({i},{j})[1] then "
            f"Mor({j},{k})[1] is absent from Mor({i},{k})"
            for i, j in pairs
            for k in objs
        ]
        assert validate_spine(spine).render_lines() == expected

    def test_increasing_pairs_without_closure_are_caught(self):
        # as above on the increasing pairs only: G = {id, (0 1 2)} again
        objs, points = ["1", "2", "3"], ["0", "1", "2"]
        sets = {o: FiniteSet(o, points) for o in objs}
        pairs = [("1", "2"), ("1", "3"), ("2", "3")]
        morphisms = {
            (i, j): (
                FiniteMap(i, j, {x: x for x in points}),
                FiniteMap(i, j, {"0": "1", "1": "2", "2": "0"}),
            )
            for i, j in pairs
        }
        spine = GroupoidSpine(objs, sets, pairs, morphisms)
        assert not is_groupoid(spine)
        assert validate_spine(spine).render_lines() == [
            "validation: fail (1 violations)",
            "  axiom3 ClosureViolation: composite of Mor(1,2)[1] then "
            "Mor(2,3)[1] is absent from Mor(1,3)",
        ]

    def test_family_larger_than_the_vertex_group_is_caught(self):
        # Mor(1, 2) holds t_1^-1, g, t_2 for every g in G = Z3, and a swap
        spine = translation_spine(3, 3)
        morphisms = {pair: list(fams) for pair, fams in spine.morphisms.items()}
        swap = FiniteMap("1", "2", {"0": "1", "1": "0", "2": "2"})
        morphisms[("1", "2")].append(swap)
        spine = GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)
        assert not is_groupoid(spine)
        expected = ["validation: fail (3 violations)"]
        expected += [
            f"  axiom3 ClosureViolation: composite of Mor(1,2)[3] then "
            f"Mor(2,3)[{n}] is absent from Mor(1,3)"
            for n in range(3)
        ]
        assert validate_spine(spine).render_lines() == expected

    def test_closed_groupoid_missing_a_map_is_caught(self):
        # the loops of the other maps span G = Z3 within its 3 maps, so only
        # the family size rejects Mor(1, 2), which holds 2 of them
        objs = ["1", "2", "3"]
        sets = {o: FiniteSet(o, ["0", "1", "2"]) for o in objs}
        pairs = [(i, j) for i in objs for j in objs]
        morphisms = {(i, j): [shift_map(i, j, 3, t) for t in range(3)] for i, j in pairs}
        morphisms[("1", "2")].pop()
        spine = GroupoidSpine(objs, sets, pairs, morphisms)
        assert not is_groupoid(spine)
        witnesses = [
            ("1,1", 1, "1,2", 1),
            ("1,1", 2, "1,2", 0),
            ("1,2", 0, "2,2", 2),
            ("1,2", 1, "2,2", 1),
            ("1,3", 0, "3,2", 2),
            ("1,3", 1, "3,2", 1),
            ("1,3", 2, "3,2", 0),
        ]
        assert validate_spine(spine).render_lines() == [
            "validation: fail (8 violations)",
            "  axiom2 MissingInverse: inverse of Mor(2,1)[1] is absent from Mor(1,2)",
        ] + [
            f"  axiom3 ClosureViolation: composite of Mor({a})[{m}] then "
            f"Mor({b})[{n}] is absent from Mor(1,2)"
            for a, m, b, n in witnesses
        ]

    def test_increasing_pairs_missing_a_map_keep_no_group(self):
        # a groupoid restricted to its pairs, but not one vertex group carried
        # along the tree: the sweeps pass it, and regularity counts its pairs
        spine = translation_spine(3, 3)
        morphisms = {pair: list(fams) for pair, fams in spine.morphisms.items()}
        morphisms[("1", "2")].pop()
        spine = GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)
        assert is_groupoid(spine)
        report = validate_spine(spine)
        assert report.ok and report._group is None
        assert check_regularity(spine).render_lines() == [
            "regularity: fail",
            "  Mor(1,2) hits (0 -> 2) 0 times, expected exactly 1",
            "  Mor(1,2) hits (1 -> 0) 0 times, expected exactly 1",
            "  Mor(1,2) hits (2 -> 1) 0 times, expected exactly 1",
        ]

    def test_swapped_map_stops_the_span_at_the_family_size(self, monkeypatch):
        # one swap in the Z12 translation spine: its loop, (0 1) then the
        # 12-cycle, and the 12-cycle generate Sym(12), which has 12! maps; the
        # span must stop as soon as G passes the 12 maps of a family
        spine = translation_spine(12, 3)
        morphisms = {pair: list(fams) for pair, fams in spine.morphisms.items()}
        images = {str(x): str((x + 1) % 12) for x in range(12)}
        images["0"], images["1"] = images["1"], images["0"]
        morphisms[("1", "2")][1] = FiniteMap("1", "2", images)
        spine = GroupoidSpine(spine.objects, spine.sets, spine.pairs, morphisms)
        # the one composable triple's axiom-3 sweep, then a few maps per map
        # of a family for the span
        bound = 12**2 + 8 * 12
        calls = []
        compose_indexed = model.compose_indexed

        def spy(f, g):
            calls.append(1)
            if len(calls) > bound:
                raise AssertionError(f"validation made over {bound} compositions")
            return compose_indexed(f, g)

        monkeypatch.setattr(model, "compose_indexed", spy)
        report = validate_spine(spine)
        assert not report.ok and report.violations[0].pair == ("1", "3")

    @staticmethod
    def compose_calls(monkeypatch, spine: GroupoidSpine) -> int:
        """The number of `compose_indexed` calls a passing validation makes."""
        calls = []
        compose_indexed = model.compose_indexed

        def counted(f, g):
            calls.append(1)
            return compose_indexed(f, g)

        monkeypatch.setattr(model, "compose_indexed", counted)
        assert validate_spine(spine).ok
        return len(calls)

    def test_closed_s4_on_five_objects_skips_the_sweep(self, monkeypatch):
        full = extend_to_groupoid(gen_group_action_spine(symmetric_group(4), 5)).extended
        # |G|^2 + 2.|I|^2.|G|; the axiom-3 sweep makes |I|^3.|G|^2 = 72 000
        assert self.compose_calls(monkeypatch, full) <= 24**2 + 2 * 5**2 * 24

    def test_s4_input_on_five_objects_skips_the_sweep(self, monkeypatch):
        spine = gen_group_action_spine(symmetric_group(4), 5)
        # |G|^2 + 2.(|I| + |R|).|G| with 10 increasing pairs; the axiom-3
        # sweep makes 10 triples at |G|^2 = 5760
        assert self.compose_calls(monkeypatch, spine) <= 24**2 + 2 * (5 + 10) * 24

    def test_c2_to_the_10_on_20_points_skips_the_closure_sweep(self, monkeypatch):
        # G = C2^10, the products of the swaps (2k 2k+1), on 3 objects: the
        # loops take 2.|R|.|G| and the span about |G| per generator, where a
        # |G|^2 closure check takes 1 048 576
        objs, points = ["1", "2", "3"], [str(x) for x in range(20)]
        sets = {o: FiniteSet(o, points) for o in objs}
        pairs = [("1", "2"), ("1", "3"), ("2", "3")]
        group = [
            {str(x): str(x ^ 1 if bits >> (x // 2) & 1 else x) for x in range(20)}
            for bits in range(2**10)
        ]
        morphisms = {(i, j): [FiniteMap(i, j, g) for g in group] for i, j in pairs}
        spine = GroupoidSpine(objs, sets, pairs, morphisms)
        assert self.compose_calls(monkeypatch, spine) <= 2 * 3 * 2**10 + (10 + 1) * 2**10
