"""The five-way coset characterization, partitions, fibers, and families."""

from itertools import combinations

import pytest

from spinekit import cosets
from spinekit.catalog import cyclic_group, symmetric_group
from spinekit.cosets import (
    AmbientGroup,
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
        translate = {amb.op(("1",), x) for x in singles(0, 1, 3)}
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
        family = [[amb.op(p, (str(u),)) for p in x] for u in range(6)]
        assert partition_check(family).equal_or_disjoint

    def test_translate_family_of_non_coset(self):
        amb = z(6)
        x = singles(0, 1, 3)
        family = [[amb.op(p, (str(u),)) for p in x] for u in range(6)]
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
                    [amb.op(p, u) for p in subset] for u in elements
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
