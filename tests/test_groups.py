"""Group extraction, fiber transport, relabeling, and classification."""

import hashlib
from itertools import permutations, product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

import spinekit.catalog as catalog_module
import spinekit.groups as groups_module
from conftest import catalog_upto, generated, translation_spine, trivial_spine
from spinekit.catalog import (
    IsoClass,
    abelian_group,
    alternating_group_4,
    catalog,
    classify_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    is_isomorphic,
    klein_group,
    symmetric_group,
)
from spinekit.cosets import AmbientGroup
from spinekit.document import serialize_group
from spinekit.errors import NotRegular, UnknownElement, UnknownObject
from spinekit.extension import ExtensionResult, extend_to_groupoid
from spinekit.generators import (
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
)
from spinekit.groups import (
    GroupAction,
    GroupTable,
    extract_group,
    group_on_fiber,
    relabel_group,
)
from spinekit.model import FiniteMap, FiniteSet, GroupoidSpine, element_index


def generating_sequence(g: GroupTable) -> list[str]:
    """The table's generating set, greedy in element order, as labels: the
    one its construction checked associativity over."""
    return [g.elements[i] for i in g._gens]


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

    def test_non_conservative_extension_is_not_regular(self):
        # two objects: the closure's group, S5, outgrows the 5-point carrier
        family = gen_latin_square_family(5, want_coset=False, seed=1)
        ext = extend_to_groupoid(latin_family_spine(family))
        assert not ext.conservative
        with pytest.raises(NotRegular) as caught:
            extract_group(ext, "1")
        assert not caught.value.report.regular
        with pytest.raises(UnknownObject):
            extract_group(ext, "9")

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
        assert fiber == cyclic_group(5)

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
        assert relabel_group(g, "0") == g

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

    def test_above_catalog_builds_no_table(self, monkeypatch):
        # no catalog entry has order 25, so none is built to compare with
        c25 = cyclic_group(25)
        catalog_module.catalog.cache_clear()
        calls, tabulate = [], groups_module.tabulate

        def counted(*args):
            calls.append(1)
            return tabulate(*args)

        monkeypatch.setattr(groups_module, "tabulate", counted)
        monkeypatch.setattr(catalog_module, "tabulate", counted)
        assert classify_group(c25).name == "unclassified(order=25)"
        assert calls == []

    def test_catalog_module_is_a_package_attribute(self):
        import spinekit

        assert spinekit.catalog.cyclic_group(3).elements == ("0", "1", "2")
        assert spinekit.catalog.catalog()[0][0] == "C1"


class TestIsomorphism:
    def test_profile_prunes(self):
        assert not is_isomorphic(cyclic_group(4), klein_group())
        assert not is_isomorphic(dihedral_group(4), dicyclic_group(2))

    def test_same_profile_non_isomorphic(self, monkeypatch):
        # C4 x C4 and C2 x Q8 share the order profile (1,3,12), C2 x C4 x C4
        # and C2 x C2 x Q8 share (1,7,24), and C4^3 and C4 x C2 x Q8 share
        # (1,7,56), but only the first of each pair is abelian. The numbers
        # of commuting pairs differ, so no generator search may start (on
        # the order-64 pair an exhaustive one takes many seconds).
        def no_search(*args):
            raise AssertionError("the generator-image search ran")

        monkeypatch.setattr(catalog_module, "_hom_from_images", no_search)
        for a, b in (
            (abelian_group(4, 4), direct_product(cyclic_group(2), dicyclic_group(2))),
            (abelian_group(2, 4, 4), direct_product(klein_group(), dicyclic_group(2))),
            (
                abelian_group(4, 4, 4),
                direct_product(abelian_group(4, 2), dicyclic_group(2)),
            ),
        ):
            assert a.order_profile() == b.order_profile()
            assert not is_isomorphic(a, b)
            assert not is_isomorphic(b, a)
            assert classify_group(b).name == f"unclassified(order={len(b)})"

    def test_roundtrip_catalog(self):
        for name, g in catalog_upto(8):
            assert is_isomorphic(g, g), name

    def test_agrees_with_the_homomorphism_check(self):
        # no two catalog entries share order and profile, so the pairs of
        # equal profile are each entry with itself, the relabelings and
        # two non-isomorphic pairs of orders 16 and 32
        pairs = [
            (g, h)
            for _, g in catalog()
            for _, h in catalog()
            if len(g) == len(h) and g.order_profile() == h.order_profile()
        ]
        for g in (dihedral_group(16), abelian_group(4, 12), dicyclic_group(16)):
            for d in g.elements[1::23]:
                pairs += [(relabel_group(g, d), g), (g, relabel_group(g, d))]
        for a, b in (
            (abelian_group(4, 4), direct_product(cyclic_group(2), dicyclic_group(2))),
            (abelian_group(2, 4, 4), direct_product(klein_group(), dicyclic_group(2))),
        ):
            pairs += [(a, b), (b, a)]
        for g, h in pairs:
            assert is_isomorphic(g, h) == isomorphic_oracle(g, h)

    def test_commuting_pairs_counted_once_on_first_use(self):
        g = direct_product(abelian_group(4, 2), dicyclic_group(2))
        assert not hasattr(g, "_commuting")  # construction does not pay for it
        expected = sum(g.op(a, b) == g.op(b, a) for a in g.elements for b in g.elements)
        assert catalog_module._commuting_pairs(g) == expected == 64 * 40  # |G| times 8 · 5 classes
        assert g._commuting == expected
        for name, h in catalog():
            literal = sum(h.op(a, b) == h.op(b, a) for a in h.elements for b in h.elements)
            assert catalog_module._commuting_pairs(h) == literal, name


def isomorphic_oracle(g: GroupTable, h: GroupTable) -> bool:
    """The generator-image search that re-checked phi(a.b) = phi(a).phi(b)
    over all n^2 pairs once every generator had an image."""
    if len(g) != len(h) or g.order_profile() != h.order_profile():
        return False
    gens = generating_sequence(g)

    def assign(images):
        # the search runs on element indices: convert at the call
        found = catalog_module._hom_from_images(
            g, h, [g._index[a] for a in gens[: len(images)]], [h._index[c] for c in images]
        )
        if found is None:
            return False
        phi = {g.elements[a]: h.elements[b] for a, b in found.items()}
        if len(images) == len(gens):
            return len(phi) == len(g) and all(
                phi[g.op(a, b)] == h.op(phi[a], phi[b])
                for a in g.elements
                for b in g.elements
            )
        order = g.order_of(gens[len(images)])
        return any(
            assign(images + [c]) for c in h.elements if h.order_of(c) == order
        )

    return assign([])


# e, a, b with a.a = b.b = e and a.b = b.a = b: the identity and inverses
# hold, and (x.a).y = x.(a.y) for all x, y, but (a.b).b = e differs from
# a.(b.b) = a. The greedy generators are a, then b.
NON_ASSOCIATIVE = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]


def magma(rows: list[list[int]]) -> tuple[list[str], dict]:
    """Labels "0", "1", ... and the product x.y = rows[x][y]."""
    labels = [str(i) for i in range(len(rows))]
    return labels, {
        (labels[i], labels[j]): labels[c]
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
    }


def first_non_associative(labels, prod):
    """Oracle: the first (a, b, c) with (a.b).c != a.(b.c), over all n^3."""
    for a, b, c in iproduct(labels, repeat=3):
        if prod[(prod[(a, b)], c)] != prod[(a, prod[(b, c)])]:
            return a, b, c
    return None


@st.composite
def magmas_with_identity(draw):
    """Tables on 3 to 5 elements with "0" as two-sided identity: a group of
    that order with up to two entries redrawn, or any such table."""
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        group = draw(st.sampled_from([g for _, g in catalog_upto(5) if len(g) == n]))
        index = {e: i for i, e in enumerate(group.elements)}
        rows = [[index[group.op(a, b)] for b in group.elements] for a in group.elements]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            rows[i][j] = draw(st.integers(0, n - 1))
    else:
        rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[0][i] = rows[i][0] = i
    return rows


class TestAxiomChecks:
    """The generator-set checks against the exhaustive loops, and the
    messages the loops name on failure."""

    @given(magmas_with_identity())
    @example(NON_ASSOCIATIVE)
    @settings(max_examples=300, deadline=None)
    def test_light_agrees_with_brute_force(self, rows):
        labels, prod = magma(rows)
        two_sided = lambda a, b: prod[(a, b)] == "0" == prod[(b, a)]
        witness = first_non_associative(labels, prod)
        if not all(any(two_sided(a, b) for b in labels) for a in labels):
            with pytest.raises(ValueError, match="elements without inverses"):
                GroupTable(labels, "0", prod)
        elif witness:
            with pytest.raises(ValueError) as caught:
                GroupTable(labels, "0", prod)
            message = "product is not associative at ({!r},{!r},{!r})"
            assert str(caught.value) == message.format(*witness)
        else:
            assert GroupTable(labels, "0", prod).product == prod

    def test_non_associative_table(self):
        labels, prod = magma(NON_ASSOCIATIVE)
        assert first_non_associative(labels, prod) == ("1", "2", "2")
        with pytest.raises(ValueError) as caught:
            GroupTable(labels, "0", prod)
        assert str(caught.value) == "product is not associative at ('1','2','2')"

    def test_product_key_outside_elements(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError) as caught:
            GroupTable(g.elements, g.identity, {**g.product, ("zz", "q"): "1"})
        assert str(caught.value) == "product key ('zz', 'q') is not a pair of elements"

    def test_incompatible_action(self):
        # V4 is generated by 0.1 then 1.0. 0.1 acts by an involution s and
        # passes for every g and x; 1.0 acts by a 4-cycle t, whose square is
        # not the identity, and 1.1 by t.s, so the first generator alone
        # cannot see the failure
        v4 = klein_group()
        assert generating_sequence(v4) == ["0.1", "1.0"]
        points = ["a", "b", "c", "d"]
        s = dict(zip(points, "badc"))
        t = dict(zip(points, "bcda"))
        acts = {"0.0": {x: x for x in points}, "0.1": s, "1.0": t}
        acts["1.1"] = {x: t[s[x]] for x in points}
        act = {(g, x): acts[g][x] for g in acts for x in points}
        with pytest.raises(ValueError) as caught:
            GroupAction(v4, FiniteSet("X", points), act)
        message = "action incompatible with product at ('0.1','1.0','a')"
        assert str(caught.value) == message

    def test_valid_tables_run_no_triple_sweep(self, monkeypatch):
        # Light's test compares rows of one type; a tuple never equals a
        # list, which would send every valid table to the n^3 sweep
        def no_sweep(*args, **kwargs):
            raise AssertionError("the n^3 associativity sweep ran")

        monkeypatch.setattr(groups_module, "iproduct", no_sweep)
        for g in (symmetric_group(4), dicyclic_group(6), abelian_group(2, 6)):
            assert GroupTable(g.elements, g.identity, g.product) == g

    def test_non_regular_action(self):
        # Z4 acts on two points by parity: compatible, every point reached
        # from every point, but |G| > |X|
        act = {(str(g), str(x)): str((g + x) % 2) for g in range(4) for x in range(2)}
        with pytest.raises(ValueError) as caught:
            GroupAction(cyclic_group(4), FiniteSet("X", ["0", "1"]), act)
        message = "action is not regular: 2 elements send '0' to '0'"
        assert str(caught.value) == message


class TestLabelBoundary:
    """Labels are normalised and checked only by the public constructors; the
    label fields are built from the integer tables."""

    C2_ON_PQ = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}

    def test_action_key_outside_elements_and_points(self):
        c2, points = cyclic_group(2), FiniteSet("X", ["p", "q"])
        for key in [("zz", "q"), ("1", "w")]:
            with pytest.raises(ValueError) as caught:
                GroupAction(c2, points, {**self.C2_ON_PQ, key: "p"})
            assert str(caught.value) == f"action key {key!r} is not an (element, point) pair"

    def test_action_key_checked_last(self):
        act = {k: v for k, v in self.C2_ON_PQ.items() if k != ("1", "q")}
        with pytest.raises(ValueError) as caught:
            GroupAction(cyclic_group(2), FiniteSet("X", ["p", "q"]), {**act, ("zz", "q"): "p"})
        assert str(caught.value) == "action is not total at ('1','q')"

    def test_act_is_the_normalised_input(self):
        act = {(int(g), x): y for (g, x), y in self.C2_ON_PQ.items()}
        action = GroupAction(cyclic_group(2), FiniteSet("X", ["p", "q"]), act)
        assert action.act == self.C2_ON_PQ
        assert list(action.act) == list(iproduct(["0", "1"], ["p", "q"]))

    def test_product_iterates_in_element_order(self):
        g = cyclic_group(3)
        given = dict(reversed(list(g.product.items())))
        loaded = GroupTable(g.elements, g.identity, given)
        assert loaded == g
        assert list(loaded.product) == list(iproduct(g.elements, repeat=2))


class TestSharedTable:
    """The integer table a GroupTable keeps, and its readers."""

    def test_table_agrees_with_the_labels(self):
        above = [dicyclic_group(16), direct_product(symmetric_group(4), cyclic_group(2))]
        for g in [g for _, g in catalog()] + above:
            assert g._index == element_index(g.elements)
            index = g._index
            assert g._rows == tuple(
                tuple(index[g.op(a, b)] for b in g.elements) for a in g.elements
            )
            assert g._inv == tuple(index[g.inv(a)] for a in g.elements)
        assert sorted(map(len, above)) == [48, 64]

    def test_ambient_group_shares_the_table(self):
        for g in (cyclic_group(1), symmetric_group(3), dicyclic_group(3)):
            for n in (1, 2, 3):
                amb = AmbientGroup(g, n)
                assert amb._rows is g._rows
                assert amb._inv is g._inv and amb._index is g._index
                assert amb._cols == tuple(zip(*g._rows))

    def test_no_label_products(self, monkeypatch):
        s4, dic = symmetric_group(4), dicyclic_group(6)
        pairs = [(s4, relabel_group(s4, "1032")), (dic, relabel_group(dic, "b5"))]
        pairs.append((dihedral_group(12), dic))  # same order, different profile

        def no_op(self, a, b):
            raise AssertionError("a label product was looked up")

        monkeypatch.setattr(GroupTable, "op", no_op)
        for g in (s4, dic):
            AmbientGroup(g, 2)
        assert [is_isomorphic(g, h) for g, h in pairs] == [True, True, False]


class TestCatalogBuilders:
    @pytest.mark.parametrize("n", [0, -1, 5])
    def test_symmetric_group_degrees(self, n):
        with pytest.raises(ValueError, match="degree"):
            symmetric_group(n)

    def test_generating_sequence_generates(self):
        above = [
            ("D16", dihedral_group(16)),
            ("C4×C12", abelian_group(4, 12)),
            ("Dic16", dicyclic_group(16)),
            ("C4×C4×C4", abelian_group(4, 4, 4)),
        ]
        for name, g in [*catalog(), *above]:
            gens = generating_sequence(g)
            assert generated(g.op, g.identity, gens) == set(g.elements), name
            # greedy in element order: each element outside the span so far
            greedy: list[str] = []
            for e in g.elements:
                if e not in generated(g.op, g.identity, greedy):
                    greedy.append(e)
            assert gens == greedy, name

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


# The product loops each builder had before they shared one table builder,
# kept as oracles: (elements, identity, product).


def cyclic_oracle(n):
    elems = [str(i) for i in range(n)]
    product = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return elems, "0", product


def abelian_oracle(*factors):
    tuples = list(iproduct(*(range(f) for f in factors)))
    label = lambda t: ".".join(str(c) for c in t)
    product = {
        (label(a), label(b)): label(
            tuple((x + y) % f for x, y, f in zip(a, b, factors))
        )
        for a in tuples
        for b in tuples
    }
    return [label(t) for t in tuples], label(tuples[0]), product


def dihedral_oracle(n):
    rot = lambda k: "e" if k == 0 else f"r{k}"
    ref = lambda k: f"s{k}"
    label = lambda k, f: ref(k) if f else rot(k)
    elems = [rot(k) for k in range(n)] + [ref(k) for k in range(n)]
    product = {}
    for k1 in range(n):
        for f1 in (0, 1):
            for k2 in range(n):
                for f2 in (0, 1):
                    k = (k1 + (k2 if f1 == 0 else -k2)) % n
                    product[(label(k1, f1), label(k2, f2))] = label(k, f1 ^ f2)
    return elems, "e", product


def dicyclic_oracle(m):
    label = lambda k, f: f"b{k}" if f else f"a{k}"
    elems = [label(k, 0) for k in range(2 * m)] + [label(k, 1) for k in range(2 * m)]
    product = {}
    for k1 in range(2 * m):
        for f1 in (0, 1):
            for k2 in range(2 * m):
                for f2 in (0, 1):
                    if f1 == 0:
                        k, f = (k1 + k2) % (2 * m), f2
                    elif f2 == 0:
                        k, f = (k1 - k2) % (2 * m), 1
                    else:
                        k, f = (k1 - k2 + m) % (2 * m), 0
                    product[(label(k1, f1), label(k2, f2))] = label(k, f)
    return elems, "a0", product


def permutation_oracle(words):
    """Permutations in one-line notation; a.b applies b first."""
    perms = {tuple(int(c) for c in w): w for w in words}
    product = {
        (a, b): perms[tuple(p[i] for i in q)]
        for p, a in perms.items()
        for q, b in perms.items()
    }
    return sorted(words), "".join(str(i) for i in range(len(words[0]))), product


DICYCLIC = {"Q8": 2, "Dic3": 3, "Q16": 4, "Dic5": 5, "Dic6": 6}


def oracle_for(name, g):
    if name in DICYCLIC:
        return dicyclic_oracle(DICYCLIC[name])
    if name in ("S3", "S4", "A4"):
        return permutation_oracle(list(g.elements))
    if name.startswith("D"):
        return dihedral_oracle(int(name[1:]))
    factors = [int(c[1:]) for c in name.split("×")]
    return abelian_oracle(*factors) if len(factors) > 1 else cyclic_oracle(factors[0])


def assert_matches(g, oracle):
    elems, identity, product = oracle
    assert g.elements == tuple(elems) and len(g) == len(elems)
    assert g.identity == identity
    assert g.product == product
    inverse = {
        a: b
        for a in elems
        for b in elems
        if product[(a, b)] == identity and product[(b, a)] == identity
    }
    assert g.inverse == inverse


def transport_oracle(g, phi, elements):
    product = {
        (phi[a], phi[b]): phi[g.op(a, b)] for a in g.elements for b in g.elements
    }
    return list(elements), phi[g.identity], product


class TestBuildersAgainstProductLoops:
    def test_every_catalog_group(self):
        for name, g in catalog():
            assert_matches(g, oracle_for(name, g))

    def test_c30_and_named_families_above_the_catalog(self):
        assert_matches(cyclic_group(30), cyclic_oracle(30))
        assert_matches(abelian_group(4, 12), abelian_oracle(4, 12))
        assert_matches(dihedral_group(16), dihedral_oracle(16))
        assert_matches(dicyclic_group(8), dicyclic_oracle(8))

    def test_relabelings(self):
        for name, g in catalog():
            # every element for the small groups, the last one above order 8
            for d in g.elements if len(g) <= 8 else g.elements[-1:]:
                phi = {x: g.op(x, d) for x in g.elements}
                oracle = transport_oracle(g, phi, g.elements)
                assert_matches(relabel_group(g, d), oracle)

    def test_fiber_groups(self):
        for g in (symmetric_group(3), dicyclic_group(2), abelian_group(2, 4)):
            ext = extend_to_groupoid(gen_group_action_spine(g, 2))
            action = extract_group(ext, "1")
            for e in action.carrier.elements:
                phi = {h: action.apply(h, e) for h in action.group.elements}
                oracle = transport_oracle(action.group, phi, action.carrier.elements)
                assert_matches(group_on_fiber(action, e), oracle)


# SHA-256 of `serialize_group` for every catalog entry, recorded before the
# builders handed integer rows to GroupTable: the catalog's bytes must not move
CATALOG_DIGESTS = {
    "C1": "fe9bada264b3fb5610b430af54befc25089f705591ca71ff3cef9162f66ea4d4",
    "C2": "b4f9ba962da12ea994ab7d64ce4b21beebd98cc3d9ee89e7da82027e0dab897c",
    "C3": "441b2e4142c5cdfb6f6b1989d9d0da340255939fc4a1bddd6aff30189105fe62",
    "C4": "a6e6aa121fbb9e1234077a20e1bd245789525674a05f65b77382189ea73cb9ef",
    "C5": "c65830c3d1dcb667e9d66118c3f6b42fabf68582521aca6410c6c5aaaf0952c5",
    "C6": "d1f8c2a538c519b278e4ec32b2b64c826f7e2840780b8f5695c851fd36099a16",
    "C7": "8ed04a754ff43c2557b1fea1162c8f813d0eada577cad38ce6a5fd7ee0c79048",
    "C8": "1c1be31796b00f5937fdd73e86f7e318747b921912522923ca6b395296d9f411",
    "C9": "b2d708d0c3d6572592e6843c12248220a03127461e5cab991e239e3d87dc644d",
    "C10": "dd0f6147ec5c340a4c70a006ca2d131343c831acd5c15b3744c102405ee675bb",
    "C11": "b4e4b294b421b8bb7e4eaff6d4a19ba01367f0867c25f3e0ba9a527a5f673d35",
    "C12": "511e461769dc2d8e2710bbcd471d5a35d4f5e3b9ce161fa6498ba04fe61aaa52",
    "C13": "752b987de3c904616409eb9854f6ee05cc0c337f7209cbfc9fc4b57404c19c71",
    "C14": "7bb5da8e50cc71af82c63679250bc562138981afbb15be5af5efeac46a13e4af",
    "C15": "faeefed906310b19d12f636ced6f2edca0cbd387ed15bc239633e7bad79439af",
    "C16": "be217119d0633c129399a760fb5787cbef0439a6bf3605ad38c5a5e0a892b7f7",
    "C17": "f9774eefa8f174ed8ebd131eb05fe23ae7bb45931d9544809aab13cb35847ec1",
    "C18": "414cb837502ddaca969a79a621208282972570ba75825bf50dedbfa38cf652cf",
    "C19": "4394f6c19d6ff8d4875cacf0de78b581d3465fd2b150248f80db12f3260d235a",
    "C20": "6cd13b9146970d0ed4711eb380d93c1f8ad3a2a4da3980f038b7460d23332f3b",
    "C21": "14c2dface5bc4bc9e5815e0a8675ac1f366bd8adf2fa77d5d81c1aa43c2eb2f4",
    "C22": "81b29ca4a710ef0f2789b7c72257c7524b5d195fefa5beacebf975c9e76894c4",
    "C23": "60262e02fac35fa0225e133be00ed00acd3bcc13b3c971c90d0fca9a4394ec7a",
    "C24": "4b43aae4c300d4aaa5e2c3a5296a2a339c541aaac091089138b86c82d4e9ee4a",
    "C2×C2": "cc6ae0196425a83fbd96d1b9f1f18974575f498d7f929be1eff634489b81173e",
    "C2×C4": "ec4095eda8ce2e2b6e7d882740a1b2d31ed62a211c4485fa07a0bb54b2c763d1",
    "C2×C2×C2": "dbf764412e9813ff6af3adf239f7f31c5b90568cf729c630183f08c5bce75062",
    "C3×C3": "e9a0a64b65394af5b1f6837fbb70b23e73e921db10eb2d3acd9907189f0840ac",
    "C2×C6": "0afa90b2762a5106a93c68fa4159cef38adabc5492c343f71b3d856f731b4db1",
    "C2×C8": "19761bf3399d951bcff9d27d244a73ffb1882e9fd7693fa466b6fe58ec289234",
    "C4×C4": "a6d2c52efd2804f67c74fb5e6b33aad60f5a5dfc800528c88e2b404830940bfd",
    "C2×C2×C4": "90d79c71b93898b12976d94c03beecaac60401de8e6ebba2ebb459e279ec41a4",
    "C2×C2×C2×C2": "e6bd20f4e90a960dc2c8e9d9638fd4bce2df31e8de90179ab2e307864cf7de06",
    "C3×C6": "578fabb98eafbe99369409e5cdcd3ce452f23ed931ddb87fb3382d86b757cab0",
    "C2×C10": "ab8f3231828820af1e8f523ebf44b2ea84b690afb912af355316946422e52ac0",
    "C2×C12": "28c4096fb85b3b28a49b0d66db40d8f9c7527eab83573cd03aa7dbd7dffe54ca",
    "C2×C2×C6": "d44f249f1ebae74cc6a1818da245afc431fb5d55d97c30f2655824ac1a267477",
    "S3": "49ff5c73e8ad66d8587c4a05d47f27549777b48bc65fee41f9e2ade1826dfee6",
    "D4": "9f48989b4706ab6f537d10abc09a03fb8b058c67041ffea595cb977123f70d47",
    "D5": "26fb1d471fd62bdd404ac6276d6fc79984ee520fe7f07e3a960aa112e154b4a4",
    "D6": "cf2e66bad1bd9f4c78e4ae2a65f5acd65cc26ddc518e76892a8efe658fe9621e",
    "D7": "49dd51e831bfebf2ef3fcd3dbd131bbc86ad32caac8773d4073f409ce4c6dbb6",
    "D8": "163a492d6b9f401fc7b029de872c9f6f763b5ccfdfd2dc861448adefcffda5b8",
    "D9": "387951c8b717aff872e35a985ffd9b936027f544e0c242c5ab67c3df5bd0404a",
    "D10": "6dd3b3ba8b58e46269a8736fe76579ccab27a44a6758784906c1663883c3ba07",
    "D11": "227d0d47b9eb2b26ecd974a5d611a1b8da993b29f981f503a6c20a178a3d5094",
    "D12": "f8e0754eda8c8a9123e0c694273145b3a6e3d58091e8c53d11cd44210850e2fe",
    "A4": "437803672c3584561d86480cd7f796a79fd839110c9c4026e18935df56e2b02b",
    "S4": "ee5196b10753852f028c80ee1ceb8ed060e7a27f076c8e0aa6a329696b4d28b2",
    "Q8": "a0c2a041d4f55eb9aa1a666a18f7a45d7ac7cd8defd82aa484c12abe8c174798",
    "Dic3": "bbe04347bb45391df534d4f35407da4a620330e6e5bd71e29932a13c16bbeb12",
    "Q16": "241e01ef89a96ce04463b512123b14b2d409fffb341d21270841d64312fe6f76",
    "Dic5": "421e4b50c318642044d0c49f22568ccdb7f5c84fd280b09336e882f58ffcbcb6",
    "Dic6": "670f9234cf038442fa64f169ee8ad0d57cd12278d57650d77cc2c02cf3f4a8d0",
}

# (extract_group, group_on_fiber at the middle carrier point, relabel_group at
# the last element) on the group-geometry benchmark's tables, extended at two
# objects; digests of `serialize_group`, recorded as above
GEOMETRY_DIGESTS = {
    "S4": ("867b3c877207c328f88c5a92a0e3f736365c647456f5d8a1d45b2a63b7244cb6", "8566a1ac973ac35cbdf954b7f70e9610bde86a16e2ec78e164a4dc9c9a9406f1", "b06002f6fa911968863dda508cb794eb0a8aec217e10c0ee3a5572f76e7d1d6f"),
    "Dic6": ("3f2f76f1cd41f0e902ecb872eb2d4400da29bb3f6f83e677f1312d507a3f8be4", "914649904b277a3cf70769371e17581ace1cbb836ca68a8aa1f91a5d3a74104e", "3b2abd9c5f45a796153691e71d251254c43ca189534621b3fe4f783c77837faf"),
    "D16": ("0cb64f12b2c8d711933627eb3941c13685ccd758859e17f302410042f0698746", "ce41a3b6d4549e8c2a125ca7103d4606b2d175b3e72ad5c9a4a4f901e9c9009a", "d64a2d119dd7c3d015d8ab3dd8c4110128f460cd74eb1bbb84da5ff42e0808cc"),
    "C4×C12": ("3cb9c118cd3ba411105a476e8f867b06eed462d19d4c695ffd4ad29712417531", "bf5d4c490beb38ca71a9527b3936eb44de6d455c347cc4a1a52b3a160361ec6e", "547ab5f9f8d3a7efe6954e52429b150cec72f153e083e76740a681c263f63904"),
    "Dic16": ("68f98fcefc59c449e4fd29cda9c55fc9d9fc349d97f5dc8fe9e88eeca1687d35", "74579ca30da36540800fea60eb01e66fa62efd8d892a4b09941d46047bc7d931", "89558e760fe8f10fb66e758b2726c4ba09eb13d68659d691cb8414ee71cc933e"),
}

GEOMETRY_TABLES = {
    "S4": lambda: symmetric_group(4),
    "Dic6": lambda: dicyclic_group(6),
    "D16": lambda: dihedral_group(16),
    "C4×C12": lambda: abelian_group(4, 12),
    "Dic16": lambda: dicyclic_group(16),
}


def digest(g: GroupTable) -> str:
    return hashlib.sha256(serialize_group(g).encode()).hexdigest()


class TestPinnedOutput:
    """The serialized tables of the builders, byte for byte."""

    def test_catalog(self):
        assert {name: digest(g) for name, g in catalog()} == CATALOG_DIGESTS

    def test_extract_fiber_and_relabel(self):
        for name, build in GEOMETRY_TABLES.items():
            action = extract_group(extend_to_groupoid(gen_group_action_spine(build(), 2)), "1")
            points = action.carrier.elements
            got = (
                digest(action.group),
                digest(group_on_fiber(action, points[len(points) // 2])),
                digest(relabel_group(action.group, action.group.elements[-1])),
            )
            assert got == GEOMETRY_DIGESTS[name], name
