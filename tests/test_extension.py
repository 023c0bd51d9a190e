"""Regularity, symmetric closure, and extension to a groupoid."""

import json
import time

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import (
    all_bijections_spine,
    catalog_upto,
    compose,
    decode,
    generated,
    invert,
    same_morphism_sets,
    shift_map,
    symmetric_closure_oracle,
    trivial_spine,
)
from spinekit import extension
from spinekit.catalog import catalog, cyclic_group
from spinekit.document import load_spine, serialize_spine
from spinekit.errors import InvalidSpine, NotRegular, SearchExhausted, TooLarge
from spinekit.extension import (
    _CLOSURE_BUDGET,
    _close_to_groupoid,
    _regularity,
    _regularity_unchecked,
    _sharply_transitive,
    check_regularity,
    extend_to_groupoid,
    symmetric_closure,
)
from spinekit.generators import (
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from spinekit.groups import _extract, extract_group
from spinekit.model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    adjoin,
    compose_indexed,
    indexed_form,
    invert_indexed,
    validate_spine,
)


def incidence_counts(spine, pair):
    """Independent oracle: direct double loop over carrier points."""
    i, j = pair
    counts = {}
    for x in spine.sets[i].elements:
        for y in spine.sets[j].elements:
            counts[(x, y)] = sum(1 for f in spine.morphisms[pair] if f(x) == y)
    return counts


class TestRegularity:
    def test_trivial_spine(self):
        assert check_regularity(trivial_spine()).regular

    def test_translation_spine(self, z5_spine):
        assert check_regularity(z5_spine).regular
        for pair in z5_spine.pairs:
            assert set(incidence_counts(z5_spine, pair).values()) == {1}

    def test_all_bijections_not_regular(self):
        spine = all_bijections_spine(points=3, objects=2)
        report = check_regularity(spine)
        assert not report.regular
        assert all(v.count == 2 for v in report.violations)
        assert len(report.violations) == 10  # first ten only
        oracle = incidence_counts(spine, ("1", "2"))
        assert set(oracle.values()) == {2}

    def test_invalid_spine_rejected(self):
        sets = {o: FiniteSet(o, ["x"]) for o in ("1", "2")}
        spine = GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): ()})
        with pytest.raises(InvalidSpine):
            check_regularity(spine)


class TestSymmetricClosure:
    def test_already_symmetric_unchanged(self, z5_spine):
        full = extend_to_groupoid(z5_spine).extended
        again = symmetric_closure(full)
        assert same_morphism_sets(again, full)

    def test_translation_spine_gains_inverses(self, z5_spine):
        sym = symmetric_closure(z5_spine)
        assert sym.pairs == z5_spine.pairs | {("2", "1"), ("3", "2"), ("3", "1")}
        for i, j in z5_spine.pairs:
            assert sym.morphisms[(i, j)] == z5_spine.morphisms[(i, j)]
            # oracle: pointwise inversion of each original map
            expected = {invert(f).graph for f in z5_spine.morphisms[(i, j)]}
            assert {f.graph for f in sym.morphisms[(j, i)]} == expected
        assert validate_spine(sym).ok
        assert check_regularity(sym).regular

    def test_latin_rows_order4(self):
        elems = [str(x) for x in range(4)]
        sets = {"1": FiniteSet("1", elems), "2": FiniteSet("2", elems)}
        rows = tuple(shift_map("1", "2", 4, t) for t in range(4))
        spine = GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): rows})
        sym = symmetric_closure(spine)
        assert sym.pairs == {("1", "2"), ("2", "1")}
        assert {f.graph for f in sym.morphisms[("2", "1")]} == {
            invert(f).graph for f in rows
        }

    def test_requires_regular(self):
        with pytest.raises(NotRegular):
            symmetric_closure(all_bijections_spine(points=3, objects=2))

    @pytest.mark.parametrize("objects", [2, 3, 4])
    def test_order_matches_the_oracle(self, objects):
        for name, group in catalog():
            spine = gen_group_action_spine(group, objects)
            want = serialize_spine(symmetric_closure_oracle(spine))
            assert serialize_spine(symmetric_closure(spine)) == want, name

    def test_tied_graph_keys_keep_input_order(self):
        # test_cli's TestHashSeeds document, with its family in both orders:
        # the inverses of its two maps both have the graph key "a>c,b>c,b>c"
        f, g = {"c": "a", "c,b>c": "b"}, {"c": "b", "c,b>c": "a"}
        back = [{"a": "c", "b": "c,b>c"}, {"a": "c,b>c", "b": "c"}]
        for family, want in [([f, g], back), ([g, f], back[::-1])]:
            spine, _ = load_spine(json.dumps({
                "format_version": 1, "objects": ["1", "2"],
                "sets": {"1": ["c", "c,b>c"], "2": ["a", "b"]}, "pairs": [["1", "2"]],
                "morphisms": {"1|2": family},
            }))
            sym = symmetric_closure(spine)
            assert [m.mapping for m in sym.morphisms[("2", "1")]] == want
            assert serialize_spine(sym) == serialize_spine(symmetric_closure_oracle(spine))


class TestExtendToGroupoid:
    def test_translation_spine(self, z5_spine):
        result = extend_to_groupoid(z5_spine)
        assert result.conservative
        assert not result.added_morphisms
        ext = result.extended
        assert ext.pairs == {(i, j) for i in ext.objects for j in ext.objects}
        assert validate_spine(ext).ok
        assert check_regularity(ext).regular
        for o in ext.objects:
            diag = ext.morphisms[(o, o)]
            assert {f.graph for f in diag} == {
                shift_map(o, o, 5, t).graph for t in range(5)
            }

    def test_fixpoint_on_full_groupoid(self, z5_spine):
        full = extend_to_groupoid(z5_spine).extended
        again = extend_to_groupoid(full)
        # Z5 has prime order: the first non-identity loop generates it
        assert again.iterations == 2
        assert again.conservative
        assert again.extended.morphisms == full.morphisms  # identical lists

    def test_idempotent(self, z3_spine):
        once = extend_to_groupoid(z3_spine)
        twice = extend_to_groupoid(once.extended)
        assert twice.extended.morphisms == once.extended.morphisms

    def test_order_independence(self, z5_spine):
        baseline = extend_to_groupoid(z5_spine).extended
        for perm in (tuple(reversed(range(5))), (2, 0, 3, 1, 4)):
            shuffled = GroupoidSpine(
                z5_spine.objects,
                z5_spine.sets,
                z5_spine.pairs,
                {
                    p: tuple(z5_spine.morphisms[p][k] for k in perm)
                    for p in z5_spine.pairs
                },
            )
            assert same_morphism_sets(extend_to_groupoid(shuffled).extended, baseline)

    def test_trivial_spine(self):
        result = extend_to_groupoid(trivial_spine())
        assert result.conservative and result.iterations == 1

    def test_rejects_invalid_and_irregular(self):
        with pytest.raises(NotRegular):
            extend_to_groupoid(all_bijections_spine(points=3, objects=3))
        sets = {o: FiniteSet(o, ["x"]) for o in ("1", "2")}
        bad = GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): ()})
        with pytest.raises(InvalidSpine):
            extend_to_groupoid(bad)

    def test_extension_size_matches_group_order(self):
        from spinekit.catalog import symmetric_group
        from spinekit.generators import gen_group_action_spine

        spine = gen_group_action_spine(symmetric_group(3), 3)
        ext = extend_to_groupoid(spine).extended
        assert all(len(ext.morphisms[p]) == 6 for p in ext.pairs)


class TestTwoObjectCase:
    """No theorem covers two objects; conservativity is reported honestly."""

    def make_two_object(self, rows):
        n = len(rows[0])
        elems = [str(x) for x in range(n)]
        sets = {"1": FiniteSet("1", elems), "2": FiniteSet("2", elems)}
        maps = tuple(
            FiniteMap("1", "2", {str(x): str(r[x]) for x in range(n)}) for r in rows
        )
        return GroupoidSpine(["1", "2"], sets, [("1", "2")], {("1", "2"): maps})

    def test_coset_rows_are_conservative(self):
        rows = [tuple((x + t) % 5 for x in range(5)) for t in range(5)]
        result = extend_to_groupoid(self.make_two_object(rows))
        assert result.conservative

    def test_non_coset_rows_are_not(self):
        # the lexicographically first order-5 Latin square with identity
        # first row whose row set is not a coset family (found by the
        # exhaustive enumeration in test_generators)
        rows = [
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 3, 4, 0, 1),
            (3, 4, 1, 2, 0),
            (4, 2, 0, 1, 3),
        ]
        spine = self.make_two_object(rows)
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular
        result = extend_to_groupoid(spine)
        assert not result.conservative
        assert ("1", "2") in result.added_morphisms
        assert result.added_morphisms[("1", "2")]


class TestSymmetricNonRegular:
    """A symmetric spine on three or more objects extends conservatively
    even without regularity; exercised through the internal closure."""

    def test_all_bijections_closure_is_conservative(self):
        spine = all_bijections_spine(points=3, objects=3)
        assert validate_spine(spine).ok
        assert not check_regularity(spine).regular
        result, _ = _close_to_groupoid(spine)
        assert result.conservative
        ext = result.extended
        assert validate_spine(ext).ok
        assert all(len(ext.morphisms[(o, o)]) == 6 for o in ext.objects)


class TestLargeClosures:
    """Sizes the frontier closure could not reach in reasonable time."""

    def test_latin_order7_closes_to_its_loop_group(self):
        family = gen_latin_square_family(7, False, 1)
        spine = latin_family_spine(family)
        result = extend_to_groupoid(spine)
        ext = result.extended
        assert not result.conservative
        assert {p: len(ext.morphisms[p]) for p in ext.pairs} == {
            p: 5040 for p in (("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"))
        }
        # oracle: the loops f . g^-1 at object 1 generate the same group as
        # the loops f . t^-1 for one fixed t (the first of them the
        # identity); close those breadth first, composing FiniteMaps directly
        back = invert(family[0])
        gens = [compose(f, back) for f in family]
        assert set(ext.morphisms[("1", "1")]) == generated(compose, gens[0], gens)

    def test_z64_on_eight_objects(self):
        from spinekit.catalog import cyclic_group
        from spinekit.generators import gen_group_action_spine

        result = extend_to_groupoid(gen_group_action_spine(cyclic_group(64), 8))
        assert result.conservative
        ext = result.extended
        assert len(ext.pairs) == 64
        assert all(len(ext.morphisms[p]) == 64 for p in ext.pairs)


def permutation_groupoid(gens, objects: int, trees=None) -> GroupoidSpine:
    """The groupoid on objects 1..k (all pairs) whose Mor(i, j) is
    t_i^-1, G, t_j (maps listed in the order they apply): G the group the
    permutations `gens` of points 0..n-1 generate, t_i = trees[i] (default
    the identity), object i's carrier labelled "<i>.<x>"."""
    n = len(gens[0])
    group, kept = {tuple(range(n))}, []
    for g in gens:
        if g not in group:
            adjoin(group, kept, g, compose_indexed)
    labels = [str(o) for o in range(1, objects + 1)]
    trees = trees or [tuple(range(n))] * objects
    elems = {o: [f"{o}.{x}" for x in range(n)] for o in labels}
    morphisms = {
        (i, j): tuple(
            decode(
                compose_indexed(compose_indexed(invert_indexed(ti), g), tj),
                i, j, elems[i], elems[j],
            )
            for g in sorted(group)
        )
        for i, ti in zip(labels, trees)
        for j, tj in zip(labels, trees)
    }
    sets = {o: FiniteSet(o, elems[o]) for o in labels}
    return GroupoidSpine(labels, sets, list(morphisms), morphisms)


class TestClosureBudget:
    """The closure refuses a vertex group past `_CLOSURE_BUDGET` // |I|^2
    maps before it builds any output map."""

    @pytest.mark.parametrize(
        "spine, order",
        [
            # every input loop is in G: the span checks the limit as it grows
            (gen_group_action_spine(cyclic_group(6), 3), 6),
            # five loops generate all 120 permutations of five points
            (latin_family_spine(gen_latin_square_family(5, False, 1)), 120),
        ],
        ids=["Z6x3", "latin5"],
    )
    def test_boundary(self, spine, order, monkeypatch):
        objects = len(spine.objects)
        budget = order * objects**2  # a limit of exactly |G|
        for exact in (budget, budget + objects**2 - 1):
            monkeypatch.setattr(extension, "_CLOSURE_BUDGET", exact)
            assert len(_close_to_groupoid(spine)[1]) == order
        monkeypatch.setattr(extension, "_CLOSURE_BUDGET", budget - 1)  # |G| - 1
        with pytest.raises(TooLarge, match=f"passes {order - 1} maps"):
            _close_to_groupoid(spine)

    def test_default_admits_the_soft_targets(self):
        assert _CLOSURE_BUDGET // 8**2 == 4096  # maps per pair on 8 objects
        assert _CLOSURE_BUDGET // 2**2 >= 40_320  # the order-8 Latin family's G

    def test_order_nine_latin_family_is_refused_fast(self):
        rows = ["761482035", "324708516", "418270653", "036145728", "672351804",
                "283516470", "845037162", "507624381", "150863247"]
        points = [str(x) for x in range(9)]
        family = [FiniteMap("1", "2", dict(zip(points, row))) for row in rows]
        spine = latin_family_spine(family)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="passes 65536 maps"):
            extend_to_groupoid(spine)
        assert time.perf_counter() - start < 2


class TestRegularityFromVertexGroup:
    """Regularity read off the vertex group that validation found, against
    the literal per-pair counts."""

    S3_NATURAL = [(0, 1, 2), (1, 0, 2), (1, 2, 0)]  # S3 on 3 points: |G| > |X|
    V4_INTRANSITIVE = [(1, 0, 2, 3), (0, 1, 3, 2)]  # |G| = |X|, two orbits

    @pytest.mark.parametrize("gens", [S3_NATURAL, V4_INTRANSITIVE], ids=["S3", "V4"])
    def test_closed_groupoid_that_is_not_regular(self, gens):
        spine = permutation_groupoid(gens, 3)
        report = validate_spine(spine)
        assert report.ok and report._group is not None
        assert not _sharply_transitive(report._group)
        counted = _regularity_unchecked(spine)
        assert not counted.regular and check_regularity(spine) == counted
        with pytest.raises(NotRegular) as exc:
            extend_to_groupoid(spine)
        assert exc.value.report == counted

    def test_report_carries_the_group_only_on_the_fast_path(self):
        # two objects and one pair: no composable triple, so no vertex group
        two = gen_group_action_spine(cyclic_group(3), 2)
        assert validate_spine(two).ok and validate_spine(two)._group is None
        report = validate_spine(permutation_groupoid([(1, 2, 0)], 2))
        assert report._group == set(map(indexed_form, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]))
        # a private attribute, not a field: equality and repr are unchanged
        assert report == validate_spine(two)
        assert repr(report) == "ValidationReport(ok=True, violations=())"


def draw_spine(data) -> GroupoidSpine:
    """A raw or closed catalog action spine on 1-4 objects, a closed
    groupoid of a random permutation group on at most 6 points, or a
    `perturb_spine` mutant of one with at most 24 maps per pair."""
    kind = data.draw(st.sampled_from(["action", "closed-action", "permutations"]))
    if kind == "permutations":
        n = data.draw(st.integers(1, 6))
        perm = st.permutations(range(n)).map(tuple)
        gens = data.draw(st.lists(perm, min_size=1, max_size=3))
        objects = data.draw(st.integers(1, 3))
        trees = data.draw(st.lists(perm, min_size=objects, max_size=objects))
        spine = permutation_groupoid(gens, objects, trees)
    else:
        group = data.draw(st.sampled_from([g for _, g in catalog_upto(12)]))
        spine = gen_group_action_spine(group, data.draw(st.integers(1, 4)))
        if kind == "closed-action":
            spine = extend_to_groupoid(spine).extended
    # a mutant fails validation, which then sweeps every composable triple
    if len(next(iter(spine.morphisms.values()))) <= 24 and data.draw(st.booleans()):
        try:
            spine = perturb_spine(spine, data.draw(st.integers(0, 10**6)))
        except (InvalidSpine, SearchExhausted):
            reject()
    return spine


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_regularity_from_the_vertex_group(data):
    spine = draw_spine(data)
    report = validate_spine(spine)
    counted = _regularity_unchecked(spine)
    if report.ok:  # check_regularity past its validation
        assert _regularity(spine, report._group) == counted
    if report._group is None:
        return
    assert _sharply_transitive(report._group) == counted.regular
    if counted.regular:  # extract's path, the shortcut on spines closed on I x I
        ext = extend_to_groupoid(spine)
        for o in spine.objects:
            action, extracted = _extract(spine, o), extract_group(ext, o)
            assert action.group == extracted.group
            assert action == extracted
