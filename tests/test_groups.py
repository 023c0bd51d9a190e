"""Group extraction, fiber transport, relabeling, and classification."""

from itertools import permutations, product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

import spinekit.catalog as catalog_module
import spinekit.groups as groups_module
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
from spinekit.cosets import AmbientGroup
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
            assert GroupTable(g.elements, g.identity, g.product).table_equal(g)

    def test_non_regular_action(self):
        # Z4 acts on two points by parity: compatible, every point reached
        # from every point, but |G| > |X|
        act = {(str(g), str(x)): str((g + x) % 2) for g in range(4) for x in range(2)}
        with pytest.raises(ValueError) as caught:
            GroupAction(cyclic_group(4), FiniteSet("X", ["0", "1"]), act)
        message = "action is not regular: 2 elements send '0' to '0'"
        assert str(caught.value) == message


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
            assert span(g, gens) == set(g.elements), name
            # greedy in element order: each element outside the span so far
            greedy: list[str] = []
            for e in g.elements:
                if e not in span(g, greedy):
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
