"""Property tests over randomized instances."""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    catalog_upto,
    compose,
    decode,
    generated,
    gidentity,
    ginv,
    gop,
    gtuples,
    invert,
    is_subgroup,
)
from spinekit.catalog import (
    catalog,
    classify_group,
    cyclic_group,
    is_isomorphic,
    symmetric_group,
)
from spinekit.cosets import (
    AmbientGroup,
    coset_test,
    family_local_linearity,
    fiber_coset_structure,
    partition_check,
)
from spinekit.errors import NotACoset
from spinekit.extension import extend_to_groupoid
from spinekit.generators import gen_group_action_spine
from spinekit.groups import extract_group, group_on_fiber, relabel_group
from spinekit.model import (
    FiniteMap,
    compose_indexed,
    element_index,
    encode,
    indexed_form,
    invert_indexed,
)

LABELS = [str(i) for i in range(5)]


@st.composite
def bijection(draw, src="a", tgt="a", size=5):
    perm = draw(st.permutations(LABELS[:size]))
    return FiniteMap(src, tgt, dict(zip(LABELS[:size], perm)))


@given(bijection(), bijection())
def test_compose_invert_consistency(f, g):
    assert invert(compose(f, g)) == compose(invert(g), invert(f))


@given(bijection(), bijection(), bijection())
def test_compose_associativity(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(bijection())
def test_invert_is_involutive(f):
    assert invert(invert(f)) == f
    ident = {x: x for x in LABELS}
    assert compose(f, invert(f)) == FiniteMap("a", "a", ident)


@given(
    bijection("a", "b"),
    bijection("b", "c"),
    st.permutations(LABELS),
    st.permutations(LABELS),
    st.permutations(LABELS),
)
def test_indexed_core_matches_maps(f, g, xa, xb, xc):
    # carriers in arbitrary element orders, so indices differ from labels
    ia, ib, ic = element_index(xa), element_index(xb), element_index(xc)
    tf, tg = encode(f, xa, ib), encode(g, xb, ic)
    assert decode(tf, "a", "b", xa, xb) == f
    assert compose_indexed(tf, tg) == encode(compose(f, g), xa, ic)
    assert invert_indexed(tf) == encode(invert(f), xb, ia)


@st.composite
def permutations_of_points(draw):
    """Two permutations of 0..n-1 and an element order of n labels, for n
    from 1 to 300: bytes forms up to 256 points, tuples past them."""
    n = draw(st.integers(1, 300))
    perm = lambda: draw(st.permutations(range(n)))
    return perm(), perm(), perm()


def shifted(n: int, k: int) -> list[int]:
    return [(x + k) % n for x in range(n)]


@given(permutations_of_points())
@example((shifted(255, 1), shifted(255, 254)[::-1], shifted(255, 7)))
@example((shifted(256, 3), shifted(256, 0)[::-1], shifted(256, 255)))
@example((shifted(257, 256), shifted(257, 1)[::-1], shifted(257, 2)))
@settings(max_examples=60, deadline=None)
def test_indexed_forms_match_maps_and_the_tuple_path(case):
    p, q, order = case
    n = len(p)
    tp, tq = indexed_form(p), indexed_form(q)
    # bytes iff every index fits in a byte, and the form lists the images
    assert isinstance(tp, bytes) == (n <= 256) and list(tp) == p
    assert indexed_form(tp) == tp
    # the core against the tuple path, with and without a padded table
    composed, inverse = compose_indexed(tp, tq), invert_indexed(tp)
    assert list(composed) == list(compose_indexed(tuple(p), tuple(q))) == [q[y] for y in p]
    assert compose_indexed(tp, indexed_form(q, table=True)) == composed
    assert list(inverse) == list(invert_indexed(tuple(p)))
    assert compose_indexed(tp, inverse) == indexed_form(range(n))
    assert type(composed) is type(inverse) is type(tp)
    # the core against `compose` and `invert` on the decoded maps, the
    # middle carrier listed in a drawn order
    xa = [f"a{x}" for x in range(n)]
    xb = [f"b{x}" for x in order]
    xc = [f"c{x}" for x in range(n)]
    f = decode(tp, "a", "b", xa, [f"b{x}" for x in range(n)])
    g = decode(tq, "b", "c", [f"b{x}" for x in range(n)], xc)
    ia, ib, ic = element_index(xa), element_index(xb), element_index(xc)
    tf, tg = encode(f, xa, ib), encode(g, xb, ic)
    assert compose_indexed(tf, tg) == encode(compose(f, g), xa, ic) == composed
    assert invert_indexed(tf) == encode(invert(f), xb, ia)


def test_an_index_past_a_byte_makes_a_tuple():
    # a map into a larger carrier: few entries, one index past 255
    assert indexed_form([3, 300]) == (3, 300)
    assert indexed_form([3, 255]) == b"\x03\xff"
    assert indexed_form(range(257), table=True) == tuple(range(257))
    assert indexed_form([1, 0], table=True) == bytes([1, 0, *range(2, 256)])


small_groups = st.sampled_from([g for _, g in catalog_upto(8)])


@given(small_groups, st.data())
@settings(max_examples=60, deadline=None)
def test_five_way_agreement_random_subsets(group, data):
    elements = [(e,) for e in group.elements]
    subset = data.draw(
        st.lists(st.sampled_from(elements), min_size=1, unique=True)
    )
    amb = AmbientGroup(group, 1)
    report = coset_test(amb, subset)  # TheoremViolation on any disagreement
    family = [[gop(amb, x, u) for x in subset] for u in elements]
    assert partition_check(family).equal_or_disjoint == report.is_coset


@given(st.sampled_from([g for _, g in catalog_upto(12)]), st.data())
@settings(max_examples=40, deadline=None)
def test_relabel_soundness(group, data):
    d = data.draw(st.sampled_from(group.elements))
    relabeled = relabel_group(group, d)  # construction re-checks the axioms
    assert relabeled.identity == d
    assert is_isomorphic(relabeled, group)
    if d == group.identity:
        assert relabeled == group


@given(st.sampled_from([g for _, g in catalog_upto(6)]), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_generated_spines_extend_conservatively(group, objects):
    from spinekit.extension import check_regularity, extend_to_groupoid
    from spinekit.generators import gen_group_action_spine
    from spinekit.model import validate_spine

    spine = gen_group_action_spine(group, objects)
    assert validate_spine(spine).ok
    assert check_regularity(spine).regular
    result = extend_to_groupoid(spine)
    assert result.conservative
    assert all(
        len(result.extended.morphisms[p]) == len(group)
        for p in result.extended.pairs
    )


# S3^2 (non-abelian, so left and right cosets differ) and Z4^2.
SQUARES = [AmbientGroup(symmetric_group(3), 2), AmbientGroup(cyclic_group(4), 2)]


@st.composite
def coset(draw, amb, h=None):
    """A left or right coset of h, or of a drawn generated subgroup."""
    elements = list(gtuples(amb))
    if h is None:
        gens = draw(st.lists(st.sampled_from(elements), max_size=2))
        h = generated(partial(gop, amb), gidentity(amb), gens)
    u = draw(st.sampled_from(elements))
    if draw(st.booleans()):
        return frozenset(gop(amb, u, x) for x in h)
    return frozenset(gop(amb, x, u) for x in h)


@st.composite
def subset_or_coset(draw, amb):
    """A drawn subset of G^2 or a drawn coset (random subsets are rarely
    cosets)."""
    if draw(st.booleans()):
        return draw(coset(amb))
    elements = st.sampled_from(list(gtuples(amb)))
    return frozenset(draw(st.lists(elements, min_size=1, max_size=12)))


@st.composite
def coset_family(draw, amb):
    """Two to four left or right cosets of one drawn subgroup."""
    gens = draw(st.lists(st.sampled_from(list(gtuples(amb))), max_size=2))
    h = generated(partial(gop, amb), gidentity(amb), gens)
    return draw(st.lists(coset(amb, h), min_size=2, max_size=4))


def every_member_verdicts(amb, xset):
    """The coset test's search before it tried only the least member: every
    member a in order, a^-1 X (X a^-1) tested for being a subgroup."""
    ordered = sorted(xset, key=amb.tuple_key)
    left, subgroup, translator = False, None, None
    for a in ordered:
        h = frozenset(gop(amb, ginv(amb, a), x) for x in xset)
        if is_subgroup(amb, h):
            left, subgroup, translator = True, h, a
            break
    right = any(
        is_subgroup(amb, frozenset(gop(amb, x, ginv(amb, a)) for x in xset))
        for a in ordered
    )
    return left, right, subgroup, translator


@given(st.sampled_from(SQUARES), st.data())
@settings(max_examples=80, deadline=None)
def test_least_member_coset_test_matches_every_member_search(amb, data):
    xset = data.draw(subset_or_coset(amb))
    report = coset_test(amb, xset)
    got = (report.left_coset, report.right_coset, report.subgroup, report.translator)
    assert got == every_member_verdicts(amb, xset)


@given(st.sampled_from(SQUARES), st.data())
@settings(max_examples=20, deadline=None)
def test_translate_search_matches_enumeration_of_the_power(amb, data):
    family = data.draw(coset_family(amb))
    report = family_local_linearity(amb, family)
    subgroups = report.subgroups
    translates = all(
        any(
            frozenset(gop(amb, u, x) for x in family[i]) == family[j]
            for u in gtuples(amb)
        )
        for i in range(len(family))
        for j in range(i + 1, len(family))
        if subgroups[i] is not None and subgroups[i] == subgroups[j]
    )
    assert report.shared_subgroup_translates == translates


@given(st.sampled_from(SQUARES), st.data())
@settings(max_examples=60, deadline=None)
def test_structure_checks_agree_with_the_five_way_test(amb, data):
    xset = data.draw(subset_or_coset(amb))
    report = coset_test(amb, xset)
    lin = family_local_linearity(amb, [xset])
    assert lin.member_cosets == (report.left_coset,)
    assert lin.subgroups == (report.subgroup,)
    if report.left_coset:
        fiber_coset_structure(amb, xset, [0])
    else:
        with pytest.raises(NotACoset):
            fiber_coset_structure(amb, xset, [0])


@given(st.sampled_from([g for _, g in catalog()]), st.data())
@settings(max_examples=30, deadline=None)
def test_fiber_group_has_the_acting_groups_class(group, data):
    # `extract` prints the acting group's class for the fiber group
    action = extract_group(extend_to_groupoid(gen_group_action_spine(group, 1)), "1")
    e = data.draw(st.sampled_from(action.carrier.elements))
    assert classify_group(group_on_fiber(action, e)) == classify_group(action.group)
