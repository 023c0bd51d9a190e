"""The five-way coset characterization, partitions, fibers, and families."""

from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import generated, gidentity, ginv, gop, gtuples, is_subgroup
from spinekit import cosets
from spinekit.catalog import cyclic_group, symmetric_group
from spinekit.cosets import (
    AmbientGroup,
    CosetReport,
    coset_test,
    family_local_linearity,
    fiber_coset_structure,
    partition_check,
)
from spinekit.errors import EmptySet, NotACoset, UnknownElement


def z(n):
    return AmbientGroup(cyclic_group(n), 1)


def singles(*labels):
    return [(str(x),) for x in labels]


class TestCosetTest:
    def test_subgroup_of_z6(self):
        report = coset_test(z(6), singles(0, 2, 4))
        assert all(report.verdicts())
        assert report.subgroup == frozenset(singles(0, 2, 4))
        assert report.translator == ("0",)

    def test_nontrivial_coset_of_z6(self):
        report = coset_test(z(6), singles(1, 3, 5))
        assert all(report.verdicts())
        assert report.subgroup == frozenset(singles(0, 2, 4))
        assert report.translator == ("1",)

    def test_non_coset_all_false(self):
        report = coset_test(z(6), singles(0, 1, 3))
        assert not any(report.verdicts())
        assert report.subgroup is None and report.translator is None
        # oracle: the translate X+1 = {1,2,4} meets X without equality
        amb = z(6)
        translate = {gop(amb, ("1",), x) for x in singles(0, 1, 3)}
        assert translate & set(singles(0, 1, 3))
        assert translate != set(singles(0, 1, 3))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            coset_test(z(6), [])

    def test_unknown_element_rejected(self):
        with pytest.raises(UnknownElement):
            coset_test(z(6), singles(0, 9))
        with pytest.raises(UnknownElement):
            coset_test(z(6), [("0", "1")])

    @pytest.mark.parametrize(
        "group,expected_cosets",
        [(cyclic_group(6), 12), (symmetric_group(3), 18)],
        ids=["Z6", "S3"],
    )
    def test_exhaustive_five_way_agreement(self, group, expected_cosets):
        # coset_test itself raises TheoremViolation on any disagreement,
        # so sweeping all non-empty subsets is the assertion; the expected
        # counts sum the index [G:H] over all subgroups H
        amb = AmbientGroup(group, 1)
        elements = [(e,) for e in group.elements]
        coset_count = 0
        for size in range(1, len(elements) + 1):
            for subset in combinations(elements, size):
                coset_count += coset_test(amb, subset).is_coset
        assert coset_count == expected_cosets

    def test_power_two(self):
        amb = AmbientGroup(cyclic_group(4), 2)
        diagonal = [(str(x), str(x)) for x in range(4)]
        report = coset_test(amb, diagonal)
        assert all(report.verdicts())
        assert report.translator == ("0", "0")
        off = [(str(x), str((x * x) % 4)) for x in range(4)]
        assert not any(coset_test(amb, off).verdicts())


class TestPartitionCheck:
    def test_disjoint_singletons(self):
        report = partition_check([singles(0), singles(1), singles(2)])
        assert report.equal_or_disjoint

    def test_translate_family_of_coset(self):
        amb = z(6)
        x = singles(0, 2, 4)
        family = [[gop(amb, p, (str(u),)) for p in x] for u in range(6)]
        assert partition_check(family).equal_or_disjoint

    def test_translate_family_of_non_coset(self):
        amb = z(6)
        x = singles(0, 1, 3)
        family = [[gop(amb, p, (str(u),)) for p in x] for u in range(6)]
        report = partition_check(family)
        assert not report.equal_or_disjoint
        i, j, shared = report.witness
        assert shared in set(family[i]) & set(family[j])
        assert set(family[i]) != set(family[j])

    def test_empty_family_rejected(self):
        with pytest.raises(EmptySet):
            partition_check([])

    def test_partition_iff_coset_for_all_z6_subsets(self):
        amb = z(6)
        elements = singles(*range(6))
        for size in range(1, 7):
            for subset in combinations(elements, size):
                is_coset = coset_test(amb, subset).is_coset
                family = [
                    [gop(amb, p, u) for p in subset] for u in elements
                ]
                assert partition_check(family).equal_or_disjoint == is_coset


class TestFiberStructure:
    def test_diagonal_of_z4_squared(self):
        amb = AmbientGroup(cyclic_group(4), 2)
        diagonal = [(str(x), str(x)) for x in range(4)]
        report = fiber_coset_structure(amb, diagonal, proj=[1])
        assert report.subgroup == frozenset({("0", "0")})
        assert len(report.fibers) == 4

    def test_set_given_as_an_iterator(self):
        # the members are read once, so a generator gives the list's report
        amb = AmbientGroup(cyclic_group(4), 2)
        diagonal = [(str(x), str(x)) for x in range(4)]
        expected = fiber_coset_structure(amb, diagonal, proj=[1])
        assert fiber_coset_structure(amb, iter(diagonal), proj=[1]) == expected

    def test_full_ambient(self):
        amb = AmbientGroup(cyclic_group(6), 2)
        full = [(str(x), str(y)) for x in range(6) for y in range(6)]
        report = fiber_coset_structure(amb, full, proj=[1])
        assert report.subgroup == frozenset((str(x), "0") for x in range(6))

    def test_difference_set_subgroup(self):
        # pairs with y - x in {0, 3}: a coset whose fibers over y are
        # cosets of {0,3} x {0}
        amb = AmbientGroup(cyclic_group(6), 2)
        x = [(str(a), str((a + t) % 6)) for a in range(6) for t in (0, 3)]
        report = fiber_coset_structure(amb, x, proj=[1])
        assert report.subgroup == frozenset({("0", "0"), ("3", "0")})
        assert len(report.fibers) == 6

    def test_difference_set_that_is_no_coset_is_rejected(self):
        # pairs with y - x in {0, 2}: {0,2} is not a subgroup of Z/6, so
        # the set fails the coset precondition outright
        amb = AmbientGroup(cyclic_group(6), 2)
        x = [(str(a), str((a + t) % 6)) for a in range(6) for t in (0, 2)]
        assert not coset_test(amb, x).is_coset
        with pytest.raises(NotACoset):
            fiber_coset_structure(amb, x, proj=[1])

    def test_product_coset_returns_first_factor(self):
        # (a,b) . (H1 x H2) with H1 = {0,3}, H2 = {0,2,4} in (Z/6)^2
        amb = AmbientGroup(cyclic_group(6), 2)
        h1, h2 = (0, 3), (0, 2, 4)
        x = [
            (str((1 + a) % 6), str((1 + b) % 6)) for a in h1 for b in h2
        ]
        report = fiber_coset_structure(amb, x, proj=[1])
        assert report.subgroup == frozenset((str(a), "0") for a in h1)

    def test_fibers_in_label_order(self):
        # Z12 labels sort "10" and "11" before "2", unlike their indices
        amb = AmbientGroup(cyclic_group(12), 2)
        # the coset (1, 5) + <(1, 2), (0, 6)>
        x = [
            (str((a + 1) % 12), str((2 * a + b + 5) % 12))
            for a in range(12)
            for b in (0, 6)
        ]
        report = fiber_coset_structure(amb, x, proj=(0,))
        assert report.subgroup == frozenset({("0", "0"), ("0", "6")})
        translators = "3 5 5 1 1 3 5 1 3 5 1 3".split()
        labels = sorted(str(t) for t in range(12))
        assert report.fibers == tuple(
            ((t,), (t, u)) for t, u in zip(labels, translators)
        )

    def test_bad_projection(self):
        amb = AmbientGroup(cyclic_group(4), 2)
        with pytest.raises(ValueError):
            fiber_coset_structure(amb, [("0", "0")], proj=[2])

    def test_empty_set_rejected(self):
        amb = AmbientGroup(cyclic_group(4), 2)
        with pytest.raises(EmptySet):
            fiber_coset_structure(amb, [], proj=[0])


def test_structure_checks_skip_the_five_way_test(monkeypatch):
    # the structure checks read one verdict, so they must not pay for all
    # five (two |G|^n translate enumerations and an |X|^3 sweep)
    def forbidden(*args):
        raise AssertionError("the five-way test ran")

    monkeypatch.setattr(cosets, "coset_test", forbidden)
    monkeypatch.setattr(cosets, "_translates_partition", forbidden)
    amb = AmbientGroup(cyclic_group(6), 2)
    coset = [(str(a), str((a + t) % 6)) for a in range(6) for t in (0, 3)]
    non_coset = [(str(a), str((a + t) % 6)) for a in range(6) for t in (0, 2)]
    assert fiber_coset_structure(amb, coset, proj=[1]).subgroup == frozenset(
        {("0", "0"), ("3", "0")}
    )
    with pytest.raises(NotACoset):
        fiber_coset_structure(amb, non_coset, proj=[1])
    report = family_local_linearity(amb, [coset, non_coset])
    assert report.member_cosets == (True, False)


class TestLocalLinearity:
    def lines(self, p):
        return [
            [(str(x), str((x + t) % p)) for x in range(p)] for t in range(p)
        ]

    def test_affine_lines_over_f5(self):
        amb = AmbientGroup(cyclic_group(5), 2)
        report = family_local_linearity(amb, self.lines(5))
        assert report.all_cosets
        diagonal = frozenset((str(x), str(x)) for x in range(5))
        assert all(h == diagonal for h in report.subgroups)
        assert report.shared_subgroup_translates

    def test_parabola_fails(self):
        amb = AmbientGroup(cyclic_group(5), 2)
        family = self.lines(5) + [[(str(x), str((x * x) % 5)) for x in range(5)]]
        report = family_local_linearity(amb, family)
        assert not report.all_cosets
        assert report.member_cosets == (True,) * 5 + (False,)

    def test_singletons_pass(self):
        amb = AmbientGroup(cyclic_group(5), 1)
        report = family_local_linearity(amb, [singles(x) for x in range(5)])
        assert report.all_cosets
        assert all(h == frozenset(singles(0)) for h in report.subgroups)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_affine_lines_all_small_primes(self, p):
        amb = AmbientGroup(cyclic_group(p), 2)
        report = family_local_linearity(amb, self.lines(p))
        assert report.all_cosets and report.shared_subgroup_translates

    def test_empty_rejected(self):
        amb = AmbientGroup(cyclic_group(3), 1)
        with pytest.raises(EmptySet):
            family_local_linearity(amb, [])
        with pytest.raises(EmptySet):
            family_local_linearity(amb, [[]])


# The string-label sweeps coset_test ran before it worked on element
# indices, kept as an oracle: every translate by all of G^n, and the
# literal x.y^-1.z loop.


def oracle_translates_partition(amb, xs, mul):
    seen = {frozenset(mul(g, x) for x in xs) for g in gtuples(amb)}
    return all(not (a & b) for a, b in combinations(seen, 2))


def oracle_coset(amb, xs, mul):
    a = min(xs, key=amb.tuple_key)
    a_inv = ginv(amb, a)
    h = frozenset(mul(a_inv, x) for x in xs)
    return (h, a) if is_subgroup(amb, h) else None


def oracle_report(amb, xs):
    xset = frozenset(amb.check_member(x) for x in xs)
    right = lambda g, x: gop(amb, x, g)
    left = oracle_coset(amb, xset, partial(gop, amb))
    xyz = all(
        gop(amb, gop(amb, x, ginv(amb, y)), z) in xset
        for x in xset
        for y in xset
        for z in xset
    )
    return CosetReport(
        oracle_translates_partition(amb, xset, partial(gop, amb)),
        oracle_translates_partition(amb, xset, right),
        left is not None,
        oracle_coset(amb, xset, right) is not None,
        xyz,
        *(left or (None, None)),
    )


Z6_4 = AmbientGroup(cyclic_group(6), 4)
Z4_5 = AmbientGroup(cyclic_group(4), 5)
S3_4 = AmbientGroup(symmetric_group(3), 4)
# non-abelian, and labels whose string order is not their index order
Z12_2 = AmbientGroup(cyclic_group(12), 2)
S3_2 = AmbientGroup(symmetric_group(3), 2)


@st.composite
def coset_inputs(draw):
    """An ambient power and a drawn subset, left coset or right coset of a
    subgroup generated by up to two drawn elements (by the first alone
    when two generate more than 24, to keep the oracle's sweep short)."""
    amb = draw(st.sampled_from([Z6_4, Z4_5, S3_4, Z12_2, S3_2]))
    element = st.tuples(*[st.sampled_from(amb.group.elements)] * amb.power)
    kind = draw(st.sampled_from(["subset", "left", "right"]))
    if kind == "subset":
        return amb, draw(st.lists(element, min_size=1, max_size=8, unique=True))
    gens = draw(st.lists(element, max_size=2))
    op = partial(gop, amb)
    h = generated(op, gidentity(amb), gens)
    if len(h) > 24:
        h = generated(op, gidentity(amb), gens[:1])
    u = draw(element)
    return amb, [gop(amb, u, x) if kind == "left" else gop(amb, x, u) for x in h]


@given(coset_inputs())
@example((Z6_4, [("1", "2", str(2 * t % 6), str(3 * t % 6)) for t in range(6)]))
@example((Z4_5, [tuple("01230"), tuple("11111"), tuple("30221")]))
@example((S3_4, [(x, "021", x, "102") for x in ("012", "120", "201")]))
@example((Z12_2, [("10", "2"), ("3", "11"), ("7", "7")]))
@example((S3_2, [(a, b) for a in ("012", "021") for b in ("102", "120")]))
@settings(max_examples=30, deadline=None)
def test_coset_report_matches_the_label_sweeps(case):
    amb, xs = case
    assert coset_test(amb, xs) == oracle_report(amb, xs)


def test_xyz_closure_tests_every_pair(monkeypatch):
    # the xyz verdict is literal: one translate (x.y^-1).X per pair (x, y),
    # besides the 1 + |H| of each coset decision; on a coset none stops early
    calls = []
    real = cosets._translate
    monkeypatch.setattr(cosets, "_translate", lambda *a: calls.append(a) or real(*a))
    xs = [(a, b) for a in ("012", "021") for b in ("102", "120")]
    assert coset_test(S3_2, xs).is_coset
    assert len(calls) == 2 * (1 + len(xs)) + len(xs) ** 2
