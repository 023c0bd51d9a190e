"""Group extraction, fiber transport, relabeling, and classification."""

from itertools import permutations

import pytest

from conftest import translation_spine, trivial_spine
from spinekit.catalog import (
    IsoClass,
    abelian_group,
    alternating_group_4,
    catalog,
    catalog_upto,
    classify_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    generating_sequence,
    is_isomorphic,
    klein_group,
    symmetric_group,
)
from spinekit.errors import MixedSignature, UnknownElement, UnknownObject
from spinekit.extension import ExtensionResult, extend_to_groupoid
from spinekit.generators import gen_group_action_spine
from spinekit.groups import (
    GroupTable,
    dedupe_family,
    extract_group,
    group_on_fiber,
    relabel_group,
)
from spinekit.model import FiniteMap, FiniteSet, GroupoidSpine


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    elems = [f"{x}:{y}" for x in a.elements for y in b.elements]
    product = {
        (f"{x1}:{y1}", f"{x2}:{y2}"): f"{a.op(x1, x2)}:{b.op(y1, y2)}"
        for x1 in a.elements
        for y1 in b.elements
        for x2 in a.elements
        for y2 in b.elements
    }
    return GroupTable(elems, f"{a.identity}:{b.identity}", product)


class TestDedupe:
    def test_distinct_maps(self):
        maps = [
            FiniteMap("a", "b", {"0": str((0 + t) % 3), "1": str((1 + t) % 3),
                                 "2": str((2 + t) % 3)})
            for t in range(3)
        ]
        reps, class_of = dedupe_family(maps)
        assert reps == maps and class_of == [0, 1, 2]

    def test_parameterized_family_mod4(self):
        maps = [
            FiniteMap("a", "a", {str(x): str((x + 2 * t) % 4) for x in range(4)})
            for t in range(4)
        ]
        reps, class_of = dedupe_family(maps)
        assert len(reps) == 2 and class_of == [0, 1, 0, 1]
        # oracle: pairwise graph comparison
        distinct = {m.graph for m in maps}
        assert len(reps) == len(distinct)

    def test_duplicated_list_halves(self):
        base = [
            FiniteMap("a", "a", {str(x): str((x + t) % 3) for x in range(3)})
            for t in range(3)
        ]
        reps, class_of = dedupe_family(base + base)
        assert len(reps) == 3 and class_of == [0, 1, 2, 0, 1, 2]

    def test_idempotent(self):
        maps = [
            FiniteMap("a", "a", {str(x): str((x + 2 * t) % 4) for x in range(4)})
            for t in range(4)
        ]
        reps, _ = dedupe_family(maps)
        again, class_of = dedupe_family(reps)
        assert again == reps and class_of == list(range(len(reps)))

    def test_mixed_signature(self):
        with pytest.raises(MixedSignature):
            dedupe_family(
                [FiniteMap("a", "b", {"x": "x"}), FiniteMap("a", "c", {"x": "x"})]
            )


class TestExtractGroup:
    def test_translation_spine_gives_cyclic(self, z5_spine):
        ext = extend_to_groupoid(z5_spine)
        action = extract_group(ext, "1")
        assert len(action.group) == 5
        assert is_isomorphic(action.group, cyclic_group(5))

    def test_klein_action_spine(self):
        ext = extend_to_groupoid(gen_group_action_spine(klein_group(), 3))
        action = extract_group(ext, "2")
        assert len(action.group) == 4
        orders = sorted(action.group.order_of(e) for e in action.group.elements)
        assert orders == [1, 2, 2, 2]

    def test_trivial_spine(self):
        ext = extend_to_groupoid(trivial_spine())
        action = extract_group(ext, "1")
        assert len(action.group) == 1

    def test_unknown_object(self, z3_spine):
        ext = extend_to_groupoid(z3_spine)
        with pytest.raises(UnknownObject):
            extract_group(ext, "9")

    def test_regular_action_invariants_hold(self):
        # construction re-checks identity, compatibility, and regularity;
        # reaching here without ValueError is the assertion
        for g in (cyclic_group(6), symmetric_group(3), klein_group()):
            ext = extend_to_groupoid(gen_group_action_spine(g, 3))
            for obj in ext.extended.objects:
                action = extract_group(ext, obj)
                assert is_isomorphic(action.group, g)

    @pytest.mark.parametrize(
        "shifts, message",
        [((1, 2), "identity"), ((0, 1), "closed under composition")],
    )
    def test_invalid_diagonal_is_rejected(self, shifts, message):
        # a hand-built result: the engine never closes a spine like this
        elems = ["a", "b", "c"]
        maps = [
            FiniteMap("1", "1", {x: elems[(n + k) % 3] for n, x in enumerate(elems)})
            for k in shifts
        ]
        spine = GroupoidSpine(
            ["1"], {"1": FiniteSet("1", elems)}, [("1", "1")], {("1", "1"): maps}
        )
        ext = ExtensionResult(spine, True, {}, 1)
        with pytest.raises(ValueError, match=message):
            extract_group(ext, "1")

    def test_roundtrip_every_catalog_group_up_to_12(self):
        for name, g in catalog_upto(12):
            ext = extend_to_groupoid(gen_group_action_spine(g, 3))
            action = extract_group(ext, "1")
            assert is_isomorphic(action.group, g), name


class TestGroupOnFiber:
    def make_action(self, n=5):
        ext = extend_to_groupoid(translation_spine(n, 3))
        return extract_group(ext, "1")

    def test_base_point_zero_gives_addition_table(self):
        fiber = group_on_fiber(self.make_action(), "0")
        assert fiber.table_equal(cyclic_group(5))

    def test_base_point_two(self):
        fiber = group_on_fiber(self.make_action(), "2")
        assert fiber.identity == "2"
        assert is_isomorphic(fiber, cyclic_group(5))

    def test_all_base_points_pairwise_isomorphic(self):
        action = self.make_action()
        tables = [group_on_fiber(action, e) for e in action.carrier.elements]
        for t in tables:
            assert t.identity in action.carrier.elements
            assert is_isomorphic(t, tables[0])

    def test_klein_fiber_has_exponent_two(self):
        ext = extend_to_groupoid(gen_group_action_spine(klein_group(), 2))
        action = extract_group(ext, "1")
        for e in action.carrier.elements:
            fiber = group_on_fiber(action, e)
            assert fiber.identity == e
            assert all(fiber.order_of(x) in (1, 2) for x in fiber.elements)

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            group_on_fiber(self.make_action(), "99")


class TestRelabel:
    def test_at_identity_is_graph_identical(self):
        g = cyclic_group(6)
        assert relabel_group(g, "0").table_equal(g)

    def test_z6_at_two(self):
        r = relabel_group(cyclic_group(6), "2")
        assert r.identity == "2"
        assert r.op("1", "3") == "2"  # 1 - 2 + 3
        assert is_isomorphic(r, cyclic_group(6))

    def test_s3_at_transposition(self):
        g = symmetric_group(3)
        transposition = next(e for e in g.elements if g.order_of(e) == 2)
        r = relabel_group(g, transposition)
        assert r.identity == transposition
        assert is_isomorphic(r, g)

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            relabel_group(cyclic_group(4), "7")


class TestClassify:
    def test_prime_order_is_cyclic(self):
        assert classify_group(cyclic_group(5)) == IsoClass(
            "C5", 5, ((1, 1), (5, 4)), True
        )

    def test_exponent_two_order_four(self):
        assert classify_group(klein_group()).name == "C2×C2"

    def test_extracted_s3(self):
        ext = extend_to_groupoid(gen_group_action_spine(symmetric_group(3), 3))
        action = extract_group(ext, "1")
        assert classify_group(action.group).name == "S3"

    def test_named_families(self):
        assert classify_group(dihedral_group(4)).name == "D4"
        assert classify_group(dicyclic_group(2)).name == "Q8"
        assert classify_group(abelian_group(2, 6)).name == "C2×C6"
        assert classify_group(symmetric_group(4)).name == "S4"

    def test_unclassified_reports_profile(self):
        # the non-abelian group of order 21: a^7 = b^3 = e, b a b^-1 = a^2
        elems = [f"{i}.{j}" for j in range(3) for i in range(7)]
        product = {}
        for i1 in range(7):
            for j1 in range(3):
                for i2 in range(7):
                    for j2 in range(3):
                        i = (i1 + i2 * pow(2, j1, 7)) % 7
                        product[(f"{i1}.{j1}", f"{i2}.{j2}")] = f"{i}.{(j1 + j2) % 3}"
        g = GroupTable(elems, "0.0", product)
        cls = classify_group(g)
        assert not cls.classified
        assert cls.name == "unclassified(order=21)"
        assert cls.profile == ((1, 1), (3, 14), (7, 6))

    def test_above_catalog_is_unclassified(self):
        cls = classify_group(cyclic_group(25))
        assert not cls.classified
        assert cls.name == "unclassified(order=25)"
        assert cls.profile == ((1, 1), (5, 4), (25, 20))

    def test_catalog_module_is_a_package_attribute(self):
        import spinekit

        assert spinekit.catalog.cyclic_group(3).elements == ("0", "1", "2")
        assert spinekit.catalog.catalog()[0][0] == "C1"


class TestIsomorphism:
    def test_profile_prunes(self):
        assert not is_isomorphic(cyclic_group(4), klein_group())
        assert not is_isomorphic(dihedral_group(4), dicyclic_group(2))

    def test_same_profile_non_isomorphic(self):
        # C4 x C4 and C2 x Q8 share the order profile (1,3,12), and so do
        # C2 x C4 x C4 and C2 x C2 x Q8 (1,7,24), but only the first of each
        # pair is abelian; the search must exhaust and say no
        for a, b in (
            (abelian_group(4, 4), direct_product(cyclic_group(2), dicyclic_group(2))),
            (abelian_group(2, 4, 4), direct_product(klein_group(), dicyclic_group(2))),
        ):
            assert a.order_profile() == b.order_profile()
            assert not is_isomorphic(a, b)
            assert not is_isomorphic(b, a)
            assert classify_group(b).name == f"unclassified(order={len(b)})"

    def test_roundtrip_catalog(self):
        for name, g in catalog_upto(8):
            assert is_isomorphic(g, g), name


def span(g: GroupTable, gens: list[str]) -> set[str]:
    """Oracle: every product of generators, found breadth first."""
    out, frontier = {g.identity}, [g.identity]
    while frontier:
        frontier = [
            c
            for c in {g.op(a, s) for a in frontier for s in gens}
            if c not in out
        ]
        out.update(frontier)
    return out


class TestCatalogBuilders:
    def test_generating_sequence_generates(self):
        for name, g in catalog():
            gens = generating_sequence(g)
            assert span(g, gens) == set(g.elements), name
            # greedy: each generator lies outside the span of the earlier ones
            for n, s in enumerate(gens):
                assert s not in span(g, gens[:n]), name

    def test_alternating_group_4_is_the_even_permutations(self):
        def parity(p):
            return sum(
                1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
            ) % 2

        even = {
            "".join(map(str, p)) for p in permutations(range(4)) if parity(p) == 0
        }
        a4 = alternating_group_4()
        assert set(a4.elements) == even and len(a4) == 12
        # the product is S4's, restricted to the even permutations
        s4 = symmetric_group(4)
        assert all(a4.op(a, b) == s4.op(a, b) for a in even for b in even)
