"""Acceptance criteria. Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they go.

All checks are exact combinatorial facts with zero tolerance.
"""

import time
from itertools import combinations

from spinekit.catalog import catalog_upto, classify_group, cyclic_group, is_isomorphic
from spinekit.cli import run_command
from spinekit.cosets import AmbientGroup, coset_test, partition_check
from spinekit.document import load_spine, serialize_spine
from spinekit.extension import (
    check_regularity,
    extend_to_groupoid,
    symmetric_closure,
)
from spinekit.generators import (
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from spinekit.groups import extract_group, group_on_fiber, relabel_group
from spinekit.model import validate_spine


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed"


def test_criterion_1_extension_theorem_sweep():
    started = time.time()
    spines = 0
    ok = True
    for name, group in catalog_upto(10):
        for objects in (3, 4, 5):
            spine = gen_group_action_spine(group, objects)
            result = extend_to_groupoid(spine)
            ext = result.extended
            ok = ok and result.conservative
            ok = ok and validate_spine(ext).ok
            ok = ok and check_regularity(ext).regular
            for obj in ext.objects:
                ok = ok and is_isomorphic(extract_group(result, obj).group, group)
            spines += 1
            assert ok, (name, objects)
    elapsed = time.time() - started
    ok = ok and spines == 54 and elapsed < 10.0
    report(1, "extension theorem sweep", ok, f"{spines} spines, {elapsed:.2f}s")


def test_criterion_2_symmetric_spine_theorem():
    ok = True
    checked = 0
    for name, group in catalog_upto(10):
        for objects in (3, 4, 5):
            sym = symmetric_closure(gen_group_action_spine(group, objects))
            result = extend_to_groupoid(sym)
            # sym's relation is exactly the symmetric pairs, so
            # conservativity says nothing was added to any of them
            ok = ok and result.conservative and not result.added_morphisms
            checked += 1
            assert ok, (name, objects)
    report(2, "symmetric-spine closure adds nothing", ok, f"{checked} spines")


def test_criterion_3_five_way_coset_equivalence():
    from spinekit.catalog import symmetric_group

    started = time.time()
    ok = True
    subsets = 0
    for group in (cyclic_group(6), symmetric_group(3)):
        amb = AmbientGroup(group, 1)
        elements = [(e,) for e in group.elements]
        for size in range(1, 7):
            for subset in combinations(elements, size):
                # coset_test raises TheoremViolation on any disagreement
                result = coset_test(amb, subset)
                family = [[amb.op(x, u) for x in subset] for u in elements]
                ok = ok and (
                    partition_check(family).equal_or_disjoint == result.is_coset
                )
                subsets += 1
                assert ok, subset
    elapsed = time.time() - started
    ok = ok and subsets == 126 and elapsed < 5.0
    report(3, "five-way coset equivalence", ok, f"{subsets} subsets, {elapsed:.2f}s")


def test_criterion_4_affine_pipeline_recovery():
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        ext = extend_to_groupoid(gen_affine_config(p))
        action = extract_group(ext, "1")
        cls = classify_group(action.group)
        ok = ok and cls.classified and cls.name == f"C{p}"
        for e in action.carrier.elements:
            ok = ok and group_on_fiber(action, e).identity == e
        assert ok, p
    report(4, "affine pipeline recovery", ok, "p in {2,3,5,7,11,13}")


def test_criterion_5_relabel_soundness():
    ok = True
    relabels = 0
    for name, group in catalog_upto(12):
        for d in group.elements:
            relabeled = relabel_group(group, d)  # construction verifies axioms
            ok = ok and relabeled.identity == d
            ok = ok and is_isomorphic(relabeled, group)
            if d == group.identity:
                ok = ok and relabeled == group
            relabels += 1
            assert ok, (name, d)
    report(5, "relabel soundness", ok, f"{relabels} relabelings")


def test_criterion_6_adversarial_two_object_case():
    non_coset = gen_latin_square_family(5, want_coset=False, seed=0)
    bad = extend_to_groupoid(latin_family_spine(non_coset))
    coset = gen_latin_square_family(5, want_coset=True)
    good = extend_to_groupoid(latin_family_spine(coset))
    ok = (
        len(non_coset) == 5
        and not bad.conservative
        and ("1", "2") in bad.added_morphisms
        and good.conservative
    )
    report(6, "adversarial two-object case", ok)


def test_criterion_7_negative_paths(tmp_path):
    base = extend_to_groupoid(gen_group_action_spine(cyclic_group(3), 3)).extended
    failures = 0
    for seed in range(100):
        mutant = perturb_spine(base, seed)
        v = validate_spine(mutant)
        if not v.ok:
            failures += bool(v.violations)
        else:
            r = check_regularity(mutant)
            failures += (not r.regular) and bool(r.violations)
    mutants_ok = failures == 100

    # CLI exit code contract on a fixed fixture set
    good = tmp_path / "good.json"
    good.write_text(serialize_spine(gen_group_action_spine(cyclic_group(5), 3)))
    broken = tmp_path / "broken.json"
    broken.write_text(serialize_spine(perturb_spine(base, 3)))
    latin = tmp_path / "latin.json"
    latin.write_text(
        serialize_spine(
            latin_family_spine(gen_latin_square_family(5, want_coset=False, seed=1))
        )
    )
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{]")

    def expect(code, *argv):
        return run_command(list(argv)) == code

    mutant_code = run_command(["validate", str(broken)])
    if mutant_code == 0:  # the seeded mutation broke only regularity
        mutant_code = run_command(["regularity", str(broken)])
    cli_ok = all(
        [
            expect(0, "validate", str(good)),
            expect(0, "regularity", str(good)),
            expect(0, "extend", str(good)),
            expect(0, "coset", "Z6", "--set", "1,3,5"),
            expect(0, "relabel", "Z6", "--d", "2"),
            mutant_code == 1,
            expect(1, "extend", str(latin)),
            expect(1, "coset", "Z6", "--set", "0,1,3"),
            expect(1, "partition", "Z6", "--sets", "0,1,3", "1,2,4"),
            expect(2, "validate", str(tmp_path / "missing.json")),
            expect(2, "validate", str(garbage)),
            expect(2, "coset", "Z6", "--set", "0,99"),
            expect(2, "gen", "--kind", "affine-config", "--prime", "6"),
            expect(2, "extract", str(good), "--object", "9"),
        ]
    )

    # byte-exact serialization round trip on generator outputs
    outputs = [
        gen_group_action_spine(cyclic_group(5), 3),
        gen_group_action_spine(cyclic_group(2), 1),
        gen_affine_config(7),
        latin_family_spine(gen_latin_square_family(4, want_coset=True)),
        latin_family_spine(gen_latin_square_family(5, want_coset=False, seed=2)),
        perturb_spine(base, 9),
        extend_to_groupoid(gen_affine_config(3)).extended,
    ]
    roundtrip_ok = True
    for spine in outputs:
        text = serialize_spine(spine)
        parsed, _ = load_spine(text)
        roundtrip_ok = roundtrip_ok and serialize_spine(parsed) == text

    ok = mutants_ok and cli_ok and roundtrip_ok
    report(
        7,
        "negative paths",
        ok,
        f"100 mutants, cli contract {'ok' if cli_ok else 'BROKEN'}, "
        f"roundtrip {'exact' if roundtrip_ok else 'BROKEN'}",
    )
