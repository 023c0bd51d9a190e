"""Property tests over randomized instances."""

from hypothesis import given, settings, strategies as st

from spinekit.catalog import catalog_upto, is_isomorphic
from spinekit.cosets import AmbientGroup, coset_test, partition_check
from spinekit.groups import dedupe_family, relabel_group
from spinekit.model import (
    FiniteMap,
    compose,
    compose_indexed,
    decode,
    element_index,
    encode,
    invert,
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


@given(st.lists(bijection(), min_size=1, max_size=12))
def test_dedupe_idempotent_and_counts(maps):
    reps, class_of = dedupe_family(maps)
    assert len(reps) == len({f.graph for f in maps})
    again, identity_classes = dedupe_family(reps)
    assert again == reps
    assert identity_classes == list(range(len(reps)))
    for n, f in enumerate(maps):
        assert reps[class_of[n]] == f


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
    family = [[amb.op(x, u) for x in subset] for u in elements]
    assert partition_check(family).equal_or_disjoint == report.is_coset


@given(st.sampled_from([g for _, g in catalog_upto(12)]), st.data())
@settings(max_examples=40, deadline=None)
def test_relabel_soundness(group, data):
    d = data.draw(st.sampled_from(group.elements))
    relabeled = relabel_group(group, d)  # construction re-checks the axioms
    assert relabeled.identity == d
    assert is_isomorphic(relabeled, group)
    if d == group.identity:
        assert relabeled.table_equal(group)


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
