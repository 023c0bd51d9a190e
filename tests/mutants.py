"""Mutation gate: the oracles must catch deliberate breakage of the engine.

    python3 tests/mutants.py

Each mutant is one (file, old, new, test selection) entry: `old` is a
snippet of src/spinekit/<file>, `new` replaces it, and the selection is the
pytest arguments that must then fail. Every run works on a fresh temporary
copy of src/ and tests/, with hypothesis on a fixed seed. First the
unmutated copy must pass every selection; then each `old` must occur
exactly once in its file, so a mutant whose code has moved fails the gate
instead of being skipped; then each mutant is applied alone and its
selection must fail. Selections and mutants run one per CPU at a time
(`os.cpu_count()`), and results print in the order listed. Exits non-zero
on any failure. Needs pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that makes its tests hang counts as caught

CLOSURE = ["tests/test_closure_oracle.py"]
VERTEX_GROUP = ["tests/test_model.py::TestVertexGroupValidation"]
# one test only: the class's property test draws order-12 mutants whose span
# would run to Sym(12) before the spy is reached
SPAN_CAP = [VERTEX_GROUP[0] + "::test_swapped_map_stops_the_span_at_the_family_size"]
STRUCTURE = ["tests/test_cosets.py", "tests/test_properties.py"]
GROUPS = ["tests/test_groups.py::TestAxiomChecks"]
COMMUTING = ["tests/test_groups.py::TestIsomorphism::test_same_profile_non_isomorphic"]
DOCUMENT = ["tests/test_document.py"]
INDEXED_MAP = ["tests/test_model.py::TestIndexedMap"]
REGULARITY = ["tests/test_extension.py::TestRegularityFromVertexGroup"]
INDEXED_FORM = "tests/test_model.py::TestValidateIndexedForm::"
READER_FALLBACK = [
    "tests/test_document.py::TestReaderFallback::test_labels_off_the_carriers_load_verbatim"
]
EXTRACT = ["tests/test_cli.py::TestExtractReusesClosure"]
EXTRACT_ORACLE = [
    "tests/test_groups.py::TestExtractGroup::test_matches_the_composition_table_oracle[1]"
]
EXTRACT_CLOSURE = [
    "tests/test_groups.py::TestExtractGroup::test_closed_exactly_when_the_composites_are_members"
]
INDEXED_CORE = ["tests/test_properties.py::test_indexed_forms_match_maps_and_the_tuple_path"]
HASH_SEEDS = ["tests/test_cli.py::TestHashSeeds"]
RANK_KEYS = "tests/test_model.py::TestRankKeys::"

MUTANTS = [
    # the group closure stops after the first coset of a new generator; this
    # also breaks the catalog, whose A4 the closure builds
    (
        "model.py",
        "    for h in new:  # grows while it is scanned\n",
        "    for h in new[:0]:  # grows while it is scanned\n",
        CLOSURE,
    ),
    # the loop span adjoins one loop per pair
    ("model.py", "        for f in maps:\n", "        for f in maps[:1]:\n", CLOSURE),
    # new families sorted by their raw indexed forms, not by graph key
    (
        "extension.py",
        "            key = rank_keys(elems[i], elems[j])\n",
        "            key = lambda t: t\n",
        CLOSURE,
    ),
    # input families taken in their raw indexed forms' order, not by graph
    # key: kept families keep that order, and the tree maps change
    (
        "extension.py",
        "key = rank_keys(elems[i], elems[j]) or graph_keys(elems[i], elems[j])",
        "key = lambda t: t",
        CLOSURE,
    ),
    # the symmetric closure's added families sorted by their raw inverse
    # forms, not by graph key
    (
        "extension.py",
        "forms.sort(key=rank_keys(elems[j], elems[i]) or graph_keys(elems[j], elems[i]))",
        "forms.sort(key=lambda t: t)",
        ["tests/test_extension.py::TestSymmetricClosure::test_order_matches_the_oracle[2]"],
    ),
    # rank keys where a target label holds ",", past which the graph keys
    # compare the next source label
    (
        "model.py",
        '    if "," in "".join(tgt):\n        return None\n',
        "    if False:\n        return None\n",
        [RANK_KEYS + "test_a_comma_in_a_target_label_leaves_graph_keys"],
    ),
    # labels ranked as themselves, not as followed by ",": "1" < "1!" but
    # "1!," < "1,"
    (
        "model.py",
        'ranked = [y + "," for y in tgt]',
        "ranked = list(tgt)",
        [RANK_KEYS + "test_prefix_labels_before_a_comma"],
    ),
    # encode returns an indexed map's stored form over any carriers
    (
        "model.py",
        "if held is not None and held[0] == src and held[1] == tgt:",
        "if held is not None:",
        INDEXED_MAP,
    ),
    # maps whose graph keys tie left in the order the set of forms
    # iterates in, which bytes hashing makes differ between hash seeds
    (
        "extension.py",
        "            if key is None:  # graph keys may tie\n",
        "            if False:\n",
        HASH_SEEDS,
    ),
    # Mor(i, j) built as G, t_i^-1, t_j: t_i^-1 on the wrong side
    (
        "extension.py",
        "compose_indexed(back[i], g) for g in group",
        "compose_indexed(g, back[i]) for g in group",
        CLOSURE,
    ),
    # regularity read off G without the orbit check: V4 = <(p q), (r s)> on
    # four points has |G| = |X| but two orbits
    (
        "extension.py",
        "return size == len(next(iter(group))) and len({g[0] for g in group}) == size",
        "return size == len(next(iter(group)))",
        REGULARITY,
    ),
    # extract reads the group off any spine with a vertex group, closed on
    # all of I x I or not
    (
        "groups.py",
        "if _valid_regular(spine) is not None and closed:",
        "if _valid_regular(spine) is not None:",
        EXTRACT,
    ),
    # extract reads the product off the wrong index: g applied to the
    # element index h rather than to its orbit point h(0), so the rows are
    # the forms themselves, which the table check rejects
    (
        "groups.py",
        "compose_indexed(compose_indexed(orbit, g), at)",
        "compose_indexed(compose_indexed(g, orbit), at)",
        EXTRACT_ORACLE,
    ),
    # extract conjugates by the inverse orbit map: `orbit` and `at` swapped
    (
        "groups.py",
        "compose_indexed(compose_indexed(orbit, g), at)",
        "compose_indexed(compose_indexed(at, g), orbit)",
        EXTRACT_ORACLE,
    ),
    # extract without its regularity guard: the diagonal S5 of a
    # non-conservative closure fails the table check, as "not closed"
    # instead of NotRegular
    (
        "groups.py",
        "    if not len(set(orbit)) == len(forms) == len(elems):\n",
        "    if False:\n",
        ["tests/test_groups.py::TestExtractGroup::test_non_conservative_extension_is_not_regular"],
    ),
    # local linearity decides right cosets where it should decide left ones
    (
        "cosets.py",
        "cosets = [_coset(amb, m, amb._rows) for m in members]",
        "cosets = [_coset(amb, m, amb._cols) for m in members]",
        STRUCTURE,
    ),
    # the fiber structure skips the check that its input is a left coset
    (
        "cosets.py",
        "    if _coset(amb, xset, amb._rows) is None:\n",
        "    if False:\n",
        STRUCTURE,
    ),
    # the translate sweep over the first coordinate's columns only
    (
        "cosets.py",
        "iproduct(*_columns(amb, xl, table))",
        "iproduct(*_columns(amb, xl, table)[:1])",
        STRUCTURE,
    ),
    # the xyz check for the first y only: the verdict cannot change (K.X in X
    # for K = X.y^-1 already makes X a coset), but the sweep is no longer
    # literal
    ("cosets.py", "        for y in xl\n", "        for y in xl[:1]\n", STRUCTURE),
    # the vertex-group check without the family sizes: a closed Z3 groupoid
    # missing one map of Mor(1, 2) would pass, and the increasing-pairs one
    # would carry a group and read as regular
    (
        "model.py",
        "    if any(len(maps) != limit for maps in graphs.values()):\n",
        "    if False:\n",
        VERTEX_GROUP,
    ),
    # the group closure checks its limit only once it is done: one swapped
    # map of the Z12 translation spine spans Sym(12), which the spy stops
    (
        "model.py",
        "        if len(group) > limit:\n            return False\n",
        "",
        SPAN_CAP,
    ),
    # Light's test over the first generator only
    (
        "groups.py",
        "for s in gens for x in rows",
        "for s in gens[:1] for x in rows",
        GROUPS,
    ),
    # Light's test compares a row form with a list, which is never equal:
    # every valid table falls through to the n^3 sweep
    (
        "groups.py",
        "== compose_indexed(rows[s], x)",
        "== list(compose_indexed(rows[s], x))",
        GROUPS,
    ),
    # Light's test with its composite the wrong way round: s.(x.y) for
    # (x.s).y, which every non-abelian group fails
    (
        "groups.py",
        "compose_indexed(rows[s], x) for s in gens",
        "compose_indexed(x, rows[s]) for s in gens",
        GROUPS,
    ),
    # the scan for inverses takes one-sided ones: a.b = e without b.a = e
    (
        "groups.py",
        "if rows[a][b] == e == rows[b][a]), None)",
        "if rows[a][b] == e), None)",
        GROUPS,
    ),
    # the first e of each row taken as the inverse without checking b.a = e
    (
        "groups.py",
        "        if not all(rows[b][a] == e for a, b in enumerate(inv)):\n",
        "        if False:\n",
        [GROUPS[0] + "::test_light_agrees_with_brute_force"],
    ),
    # extract's orbit test without |G| = |X|: two shifts on three points
    # reach two points from point 0 and pass as a group
    (
        "groups.py",
        "len(set(orbit)) == len(forms) == len(elems)",
        "len(set(orbit)) == len(forms)",
        ["tests/test_groups.py::TestExtractGroup::test_invalid_diagonal_is_rejected"],
    ),
    # extract hands the action its Cayley rows, over element indices, for
    # the forms over point indices
    ("groups.py", "_table=tuple(forms)", "_table=rows", EXTRACT_CLOSURE),
    # extract indexes the action's points by the group's element labels
    ("groups.py", "_index=index)", "_index=group._index)", EXTRACT_ORACLE),
    # the commuting pairs counted by comparing each row with itself: every
    # group then counts |G|^2, and same-profile groups go to the search
    (
        "groups.py",
        "chain.from_iterable(zip(*rows))",
        "chain.from_iterable(rows)",
        COMMUTING,
    ),
    # transport conjugates each row the wrong way: `phi` and `back` swapped.
    # Only a phi that is not a right translation in index terms tells: the
    # fiber map of D16, whose extracted elements (graph-key order) and
    # points (table order) are listed in different orders; relabeling's
    # x -> x.d commutes with every row, a left translation
    (
        "groups.py",
        "compose_indexed(compose_indexed(back, rows[a]), phi)",
        "compose_indexed(compose_indexed(phi, rows[a]), back)",
        ["tests/test_groups.py::TestGroupOnFiber::test_transport_carries_the_product"],
    ),
    # `op` reads the row of its right factor: b.a for a.b
    (
        "groups.py",
        "self._rows[self._index[a]][self._index[b]]",
        "self._rows[self._index[b]][self._index[a]]",
        ["tests/test_groups.py::TestSharedTable::test_table_agrees_with_the_labels"],
    ),
    # `apply` reads the table's column for its row
    (
        "groups.py",
        "self._table[self.group._index[g]][self._index[x]]",
        "self._table[self._index[x]][self.group._index[g]]",
        ["tests/test_groups.py::TestTableEquality::test_actions_compare_by_their_tables"],
    ),
    # the reader takes every mapping whose labels it finds in the carriers
    # as drawn from them
    (
        "document.py",
        "if len(mapping) == size and distinct:",
        "if True:",
        DOCUMENT,
    ),
    # the reader takes a mapping with a repeated image as a bijection
    (
        "document.py",
        "distinct = t.translate(bytes.maketrans(t, points)) == points",
        "distinct = True",
        ["tests/test_document.py::TestReaderFallback::test_message_and_path[not-injective]"],
    ),
    # the same on a carrier over 256 points
    (
        "document.py",
        "distinct = len(set(t)) == size",
        "distinct = True",
        ["tests/test_document.py::TestReaderFallback::test_repeated_image_over_256_points"],
    ),
    # the reader reads a mapping into its indexed form when its keys are the
    # source carrier, whatever its values
    (
        "document.py",
        "images = map(at, pick(mapping))",
        "images = [index.get(y, 0) for y in pick(mapping)]",
        READER_FALLBACK,
    ),
    # validation takes an injective indexed form into a larger carrier as
    # onto
    (
        "model.py",
        " and len(xi) == len(xj):",
        ":",
        [INDEXED_FORM + "test_unequal_carriers"],
    ),
    # validation takes the stored form of an indexed map over any order of
    # the carriers as its form over the spine's orders
    (
        "model.py",
        "held[0] == xi and held[1] == xj and ",
        "",
        [INDEXED_FORM + "test_permuted_carrier_order"],
    ),
    # the form constructor without its tuple fallback: a map into a target
    # carrier over 256 points can no longer be encoded
    (
        "model.py",
        "    except ValueError:  # an index past 255: a target carrier over 256 points\n"
        "        return tuple(images)\n",
        "    except ValueError:  # an index past 255: a target carrier over 256 points\n"
        "        raise\n",
        ["tests/test_properties.py::test_an_index_past_a_byte_makes_a_tuple"],
    ),
    # the form constructor without its size rule: a malformed row of a table
    # over 256 elements whose indices fit in a byte becomes bytes beside
    # tuple rows, and composing the two raises TypeError
    (
        "model.py",
        "    if len(images) > 256:\n        return tuple(images)\n",
        "",
        [
            "tests/test_properties.py::test_a_form_over_256_entries_is_a_tuple",
            GROUPS[0] + "::test_malformed_rows_over_256_elements",
        ],
    ),
    # the bytes inverse with the `maketrans` arguments swapped: it returns
    # the form itself
    (
        "model.py",
        "bytes.maketrans(f, _POINTS[:n])",
        "bytes.maketrans(_POINTS[:n], f)",
        INDEXED_CORE,
    ),
    # the reader takes a mapping whose images are in the target carrier,
    # with an extra key beside the source carrier's labels, as drawn from
    # the carriers
    (
        "document.py",
        "if len(mapping) == size and distinct:",
        "if distinct:",
        [READER_FALLBACK[0] + "[extra-key]"],
    ),
    # the reader takes the images in the mapping's key order, not in
    # source-carrier order
    (
        "document.py",
        "images = map(at, pick(mapping))",
        "images = map(at, mapping.values())",
        ["tests/test_document.py::TestReaderIndexedForm::test_reads_as_the_sorted_graph"],
    ),
    # the writer's template lists the keys in reverse: each image under
    # the wrong key
    (
        "document.py",
        '": %s" for x in elements]',
        '": %s" for x in elements[::-1]]',
        ["tests/test_document.py::TestWriterOracle::test_generated_documents_match_json_dumps"],
    ),
    # the Cayley printer prints column a as row a
    (
        "cli.py",
        "compose_indexed(cols, table._rows[a])",
        "[table._rows[b][a] for b in cols]",
        ["tests/test_cli.py::TestPrintCayley"],
    ),
    # the composable triples with the pairs leaving j in reverse order
    (
        "model.py",
        "for pb in leaving.get(pa[1], ()):",
        "for pb in leaving.get(pa[1], ())[::-1]:",
        ["tests/test_model.py::test_composable_triples_in_the_order_of_the_pair_sweep"],
    ),
    # the writer quotes labels without escaping them
    (
        "document.py",
        "from json.encoder import encode_basestring\n",
        "encode_basestring = lambda e: '\"' + e + '\"'\n",
        DOCUMENT,
    ),
]


def run_selection(src: Path, selection: list[str]) -> tuple[bool, str]:
    """Whether the selection passes on a fresh copy of `src` and tests/, and
    pytest's last line of output."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(src, work / "src")
        shutil.copytree(ROOT / "tests", work / "tests")
        shutil.copy(ROOT / "pyproject.toml", work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *selection]
        try:
            proc = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
        return proc.returncode == 0, (proc.stdout.strip().splitlines() or [""])[-1]


def run_mutant(src: Path, file: str, old: str, new: str, sel: list[str]) -> tuple[bool, str]:
    """`run_selection` on a copy of `src` with `old` replaced by `new` in
    spinekit/<file>."""
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "src"
        shutil.copytree(src, mutated)
        path = mutated / "spinekit" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return run_selection(mutated, sel)


def main() -> int:
    start = time.perf_counter()
    src = ROOT / "src"
    failures: list[str] = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        selections = sorted({tuple(sel) for *_, sel in MUTANTS})
        results = pool.map(lambda sel: run_selection(src, list(sel)), selections)
        for sel, (ok, last) in zip(selections, results):
            print(("ok   " if ok else "FAIL ") + f"unmutated: {' '.join(sel)}: {last}")
            if not ok:
                failures.append(f"unmutated {' '.join(sel)}")
        for file, old, _, _ in MUTANTS:
            count = (src / "spinekit" / file).read_text(encoding="utf-8").count(old)
            if count != 1:
                print(f"FAIL {file}: {old.strip()!r} occurs {count} times")
                failures.append(f"{file}: {old.strip()!r}")
        if failures:
            print(f"{len(failures)} failure(s); no mutant was run")
            return 1
        results = pool.map(lambda mutant: run_mutant(src, *mutant), MUTANTS)
        for (file, old, _, _), (passed, last) in zip(MUTANTS, results):
            what = f"{file}: {old.strip().splitlines()[0]}"
            print(("FAIL survived: " if passed else "ok   killed: ") + f"{what}: {last}")
            if passed:
                failures.append(what)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
