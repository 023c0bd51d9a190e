"""Instance generators: group-action spines, affine configurations,
Latin-square families, and seeded mutants."""

import random
from itertools import permutations

import pytest

from conftest import (
    compose,
    invert,
    invert_tuple,
    same_morphism_sets,
    translation_spine,
    trivial_spine,
)
import spinekit.generators as generators_module
from spinekit.catalog import (
    catalog,
    classify_group,
    cyclic_group,
    klein_group,
    symmetric_group,
)
from spinekit.document import serialize_spine
from spinekit.errors import InvalidSpine, NotPrime, SearchExhausted, TooLarge
from spinekit.extension import (
    _CLOSURE_BUDGET,
    _regularity,
    check_regularity,
    extend_to_groupoid,
)
from spinekit.generators import (
    MIN_NON_COSET_ORDER,
    _mutate_once,
    _xyz_closed,
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from spinekit.groups import extract_group
from spinekit.model import FiniteMap, FiniteSet, GroupoidSpine, indexed_form, validate_spine


class TestGroupActionSpine:
    def test_trivial_group_single_object(self):
        spine = gen_group_action_spine(cyclic_group(1), 1)
        assert same_morphism_sets(spine, trivial_spine()) or (
            spine.pairs == {("1", "1")} and len(spine.morphisms[("1", "1")]) == 1
        )
        assert validate_spine(spine).ok

    def test_z5_three_objects_matches_reference(self, z5_spine):
        spine = gen_group_action_spine(cyclic_group(5), 3)
        assert same_morphism_sets(spine, z5_spine)
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular

    def test_s3_three_objects(self):
        spine = gen_group_action_spine(symmetric_group(3), 3)
        assert all(len(spine.morphisms[p]) == 6 for p in spine.pairs)
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular

    def test_deterministic(self):
        a = gen_group_action_spine(symmetric_group(3), 4)
        b = gen_group_action_spine(symmetric_group(3), 4)
        assert a.morphisms == b.morphisms

    def test_bad_count(self):
        with pytest.raises(ValueError):
            gen_group_action_spine(cyclic_group(2), 0)


class TestGroupActionBudget:
    """`gen_group_action_spine` refuses a spine of more than
    `_SPINE_BUDGET` images, |G| maps per pair (one pair at one object) of
    |G| points each, before it builds a map."""

    def test_the_budget_is_the_closure_output_at_the_soft_targets(self):
        assert generators_module._SPINE_BUDGET == 64 * _CLOSURE_BUDGET == 2**24

    @pytest.mark.parametrize("objects, images", [(1, 9), (2, 9), (3, 27), (4, 54)])
    def test_at_and_past_the_limit(self, monkeypatch, objects, images):
        z3 = cyclic_group(3)
        monkeypatch.setattr(generators_module, "_SPINE_BUDGET", images)
        assert len(gen_group_action_spine(z3, objects).morphisms) == max(1, images // 9)
        monkeypatch.setattr(generators_module, "_SPINE_BUDGET", images - 1)

        def built(*args):
            raise AssertionError("a map was built past the limit")

        monkeypatch.setattr(generators_module, "indexed_map", built)
        with pytest.raises(TooLarge) as caught:
            gen_group_action_spine(z3, objects)
        assert str(caught.value) == (
            f"group-action spine too large: {images // 3} maps of 3 points make "
            f"{images} images, over the limit of {images - 1}"
        )


def translation_oracle(group, objects: int) -> GroupoidSpine:
    """The group-action spine with every translation built from its string
    graph {x: h.x}, on the diagonal pair at one object and the increasing
    pairs otherwise."""
    labels = [str(i) for i in range(1, objects + 1)]
    sets = {o: FiniteSet(o, group.elements) for o in labels}
    if objects == 1:
        pairs = [("1", "1")]
    else:
        pairs = [(i, j) for a, i in enumerate(labels) for j in labels[a + 1 :]]
    morphisms = {
        (i, j): tuple(
            FiniteMap(i, j, {x: group.op(h, x) for x in group.elements})
            for h in group.elements
        )
        for i, j in pairs
    }
    return GroupoidSpine(labels, sets, pairs, morphisms)


class TestGroupActionSpineOracle:
    """`gen_group_action_spine` builds translations from the table's rows; its
    documents must be the ones the string-graph construction writes."""

    def test_every_catalog_group(self):
        for name, g in catalog():
            for objects in (1, 2, 8):
                got = serialize_spine(gen_group_action_spine(g, objects))
                assert got == serialize_spine(translation_oracle(g, objects)), (name, objects)

    def test_translations_hold_the_table_rows(self):
        for g in (cyclic_group(1), symmetric_group(3), cyclic_group(257)):
            for objects in (1, 3):
                spine = gen_group_action_spine(g, objects)
                for maps in spine.morphisms.values():
                    assert len(maps) == len(g)
                    assert all(f._indexed[2] is row for f, row in zip(maps, g._rows))

    @pytest.mark.parametrize("n", [256, 257])
    def test_byte_and_tuple_forms(self, n):
        g = cyclic_group(n)
        got = serialize_spine(gen_group_action_spine(g, 2))
        assert got == serialize_spine(translation_oracle(g, 2))


class TestAffineConfig:
    def test_structure(self):
        spine = gen_affine_config(5)
        assert spine.objects == ("1", "2", "3")
        assert spine.pairs == {("1", "2"), ("2", "3"), ("1", "3")}
        assert all(len(spine.morphisms[p]) == 5 for p in spine.pairs)
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular

    @pytest.mark.parametrize("p,name", [(2, "C2"), (7, "C7"), (13, "C13")])
    def test_pipeline_recovers_cyclic(self, p, name):
        ext = extend_to_groupoid(gen_affine_config(p))
        action = extract_group(ext, "1")
        assert classify_group(action.group).name == name

    def test_every_prime_matches_the_translation_spine(self):
        for p in [p for p in range(2, 98) if all(p % d for d in range(2, p))]:
            got = serialize_spine(gen_affine_config(p))
            assert got == serialize_spine(translation_spine(p, 3)), p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 91])
    def test_not_prime(self, bad):
        with pytest.raises(NotPrime):
            gen_affine_config(bad)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            gen_affine_config(101)


def sharply_transitive(family):
    """Independent incidence oracle on a family of maps."""
    points = sorted(x for x, _ in family[0].graph)
    for x in points:
        for y in points:
            if sum(1 for f in family if f(x) == y) != 1:
                return False
    return True


def family_xyz_closed(family):
    """Independent closure oracle: x . y^-1 . z stays inside the family."""
    fam = set(family)
    return all(compose(compose(z, invert(y)), x) in fam for x in fam for y in fam for z in fam)


class TestLatinFamilies:
    def test_order3_coset_is_cyclic_table(self):
        family = gen_latin_square_family(3, want_coset=True)
        expected = {
            tuple(sorted((str(x), str((x + r) % 3)) for x in range(3)))
            for r in range(3)
        }
        assert {f.graph for f in family} == expected

    def test_order4_coset_is_klein_table(self):
        family = gen_latin_square_family(4, want_coset=True)
        expected = {
            tuple(sorted((str(x), str(x ^ r)) for x in range(4))) for r in range(4)
        }
        assert {f.graph for f in family} == expected
        assert family_xyz_closed(family)

    def test_order5_non_coset(self):
        family = gen_latin_square_family(5, want_coset=False, seed=0)
        assert len(family) == 5
        assert sharply_transitive(family)
        assert not family_xyz_closed(family)

    @pytest.mark.parametrize("order", [6, 7])
    def test_larger_non_coset(self, order):
        family = gen_latin_square_family(order, want_coset=False, seed=3)
        assert sharply_transitive(family)
        assert not family_xyz_closed(family)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_small_orders_exhausted(self, order):
        with pytest.raises(SearchExhausted):
            gen_latin_square_family(order, want_coset=False, seed=0)

    def test_order_bounds(self):
        with pytest.raises(TooLarge):
            gen_latin_square_family(8)
        with pytest.raises(TooLarge):
            gen_latin_square_family(1)

    def test_deterministic_in_seed(self):
        a = gen_latin_square_family(5, want_coset=False, seed=11)
        b = gen_latin_square_family(5, want_coset=False, seed=11)
        assert [f.graph for f in a] == [f.graph for f in b]

    def test_spine_wrapper(self):
        family = gen_latin_square_family(5, want_coset=True)
        spine = latin_family_spine(family)
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular

    def test_spine_on_letter_labels(self):
        # carriers of labels that are not all integers are in label order
        family = [FiniteMap("1", "2", dict(zip("cab", images))) for images in ("cab", "abc", "bca")]
        spine = latin_family_spine(family)
        assert spine.sets["1"].elements == spine.sets["2"].elements == ("a", "b", "c")
        assert validate_spine(spine).ok

    def test_spine_onto_other_labels(self):
        # X_2 is the first map's image, not its domain
        family = [FiniteMap("1", "2", dict(zip("01", images))) for images in ("xy", "yx")]
        spine = latin_family_spine(family)
        assert spine.sets["1"].elements == ("0", "1")
        assert spine.sets["2"].elements == ("x", "y")
        assert validate_spine(spine).ok
        assert check_regularity(spine).regular


class TestLatinCensus:
    """Exhaustive verification that non-coset sharply transitive families
    first appear at order 5. This freezes the empirical basis for
    MIN_NON_COSET_ORDER."""

    @staticmethod
    def enumerate_first_row_id(n):
        identity = tuple(range(n))
        squares = []

        def place(rows, used):
            r = len(rows)
            if r == n:
                squares.append(frozenset(rows))
                return
            for perm in permutations(range(n)):
                if all(perm[c] not in used[c] for c in range(n)):
                    for c in range(n):
                        used[c].add(perm[c])
                    rows.append(perm)
                    place(rows, used)
                    rows.pop()
                    for c in range(n):
                        used[c].discard(perm[c])

        place([identity], [{c} for c in range(n)])
        return set(squares)

    @staticmethod
    def rows_xyz_closed(rows):
        fam = set(rows)
        return all(
            tuple(x[invert_tuple(y)[z[c]]] for c in range(len(x))) in fam
            for x in fam
            for y in fam
            for z in fam
        )

    @pytest.mark.parametrize("order,expect_non_coset", [(3, 0), (4, 0), (5, 50)])
    def test_census(self, order, expect_non_coset):
        families = self.enumerate_first_row_id(order)
        non_coset = sum(1 for fam in families if not self.rows_xyz_closed(fam))
        assert non_coset == expect_non_coset

    @pytest.mark.parametrize("order", [4, 5])
    def test_generator_closure_matches_oracle(self, order):
        # each family and a left translate of it, which misses the identity
        shift = tuple((c + 1) % order for c in range(order))
        for fam in self.enumerate_first_row_id(order):
            moved = {tuple(shift[y] for y in row) for row in fam}
            for rows in (fam, moved):
                forms = [indexed_form(row) for row in sorted(rows)]
                assert _xyz_closed(forms) == self.rows_xyz_closed(rows)

    def test_min_order_constant(self):
        assert MIN_NON_COSET_ORDER == 5


class TestPerturb:
    def test_dropped_composition_is_closure_violation(self, z3_spine):
        # direct mutation, independent of the seeded chooser
        morphisms = {p: list(z3_spine.morphisms[p]) for p in z3_spine.pairs}
        del morphisms[("1", "3")][1]
        from spinekit.model import GroupoidSpine

        broken = GroupoidSpine(
            z3_spine.objects, z3_spine.sets, z3_spine.pairs, morphisms
        )
        report = validate_spine(broken)
        assert any(v.kind == "ClosureViolation" for v in report.violations)

    def test_removed_identity_is_axiom_one(self, z3_spine):
        ext = extend_to_groupoid(z3_spine).extended
        morphisms = {p: list(ext.morphisms[p]) for p in ext.pairs}
        ident = FiniteMap("1", "1", {x: x for x in ext.sets["1"].elements}).graph
        morphisms[("1", "1")] = [
            f for f in morphisms[("1", "1")] if f.graph != ident
        ]
        broken = GroupoidSpine(ext.objects, ext.sets, ext.pairs, morphisms)
        report = validate_spine(broken)
        assert any(
            v.kind == "MissingIdentity" and v.axiom == 1 for v in report.violations
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_every_mutant_fails_a_check(self, seed, z3_spine):
        base = extend_to_groupoid(z3_spine).extended
        mutant = perturb_spine(base, seed)
        report = validate_spine(mutant)
        if report.ok:
            assert not check_regularity(mutant).regular
        else:
            assert report.violations

    def test_deterministic(self, z5_spine):
        a = perturb_spine(z5_spine, 7)
        b = perturb_spine(z5_spine, 7)
        assert a.morphisms == b.morphisms

    def test_exactly_one_mutation(self, z5_spine):
        mutant = perturb_spine(z5_spine, 3)
        diffs = 0
        for p in z5_spine.sorted_pairs():
            before = {f.graph for f in z5_spine.morphisms[p]}
            after = {f.graph for f in mutant.morphisms[p]}
            if before != after:
                diffs += 1
                dropped = before - after
                gained = after - before
                assert (len(dropped), len(gained)) in ((1, 0), (1, 1))
        assert diffs == 1

    def test_requires_valid_input(self, z3_spine):
        broken = perturb_spine(z3_spine, 0)
        if not validate_spine(broken).ok:
            with pytest.raises(InvalidSpine):
                perturb_spine(broken, 1)

    def test_mutant_of_trivial_spine(self):
        mutant = perturb_spine(trivial_spine(), 0)
        assert not validate_spine(mutant).ok

    @pytest.mark.parametrize("name", ["Z5", "S3", "V4"])
    def test_same_mutants_as_validating_first(self, name):
        group = {"Z5": cyclic_group(5), "S3": symmetric_group(3), "V4": klein_group()}[name]
        base = gen_group_action_spine(group, 3)
        for seed in range(50):
            assert perturb_spine(base, seed) == validating_first(base, seed), seed

    def test_a_mutant_of_a_regular_base_is_not_validated(self, monkeypatch):
        # every mutation of a regular spine breaks a count, so only the base
        # is validated
        base = gen_group_action_spine(symmetric_group(3), 3)
        seen = []

        def spy(spine):
            seen.append(spine)
            return validate_spine(spine)

        monkeypatch.setattr(generators_module, "validate_spine", spy)
        for seed in range(20):
            perturb_spine(base, seed)
        assert len(seen) == 20 and all(spine is base for spine in seen)


def validating_first(spine, seed):
    """The rule `perturb_spine` had: validate each mutant, then read its
    regularity off the vertex group that validation found."""
    rng = random.Random(seed)
    for _ in range(50):
        mutant = _mutate_once(spine, rng)
        found = validate_spine(mutant)
        if not found.ok or not _regularity(mutant, found._group).regular:
            return mutant
    return None
