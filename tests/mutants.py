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
ACTION_KEYS = [
    "tests/test_groups.py::TestLabelBoundary::test_action_key_outside_elements_and_points"
]
COMMUTING = ["tests/test_groups.py::TestIsomorphism::test_same_profile_non_isomorphic"]
DOCUMENT = ["tests/test_document.py"]
INDEXED_MAP = ["tests/test_model.py::TestIndexedMap"]
REGULARITY = ["tests/test_extension.py::TestRegularityFromVertexGroup"]
INDEXED_FORM = "tests/test_model.py::TestValidateIndexedForm::"
READER_FALLBACK = [
    "tests/test_document.py::TestReaderFallback::test_labels_off_the_carriers_load_verbatim"
]
EXTRACT = ["tests/test_cli.py::TestExtractReusesClosure"]
INDEXED_CORE = ["tests/test_properties.py::test_indexed_forms_match_maps_and_the_tuple_path"]
HASH_SEEDS = ["tests/test_cli.py::TestHashSeeds"]

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
        "maps.sort(key=graph_keys(elems[i], elems[j], len(group)))",
        "maps.sort(key=lambda t: t)",
        CLOSURE,
    ),
    # the symmetric closure's added families sorted by their raw inverse
    # forms, not by graph key
    (
        "extension.py",
        "forms.sort(key=graph_keys(elems[j], elems[i], len(forms)))",
        "forms.sort(key=lambda t: t)",
        ["tests/test_extension.py::TestSymmetricClosure::test_order_matches_the_oracle[2]"],
    ),
    # encode returns an indexed map's stored form over any carriers
    (
        "model.py",
        "if held is not None and held[0] == src and held[2] == index:",
        "if held is not None:",
        INDEXED_MAP,
    ),
    # maps whose graph keys tie left in the order the set of forms
    # iterates in, which bytes hashing makes differ between hash seeds
    ("extension.py", "            if ties[i] or ties[j]:\n", "            if False:\n", HASH_SEEDS),
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
    # Light's test compares a tuple row with a list, which is never equal:
    # every valid table falls through to the n^3 sweep
    (
        "groups.py",
        "== tuple(map(x.__getitem__, rows[s]))",
        "== list(map(x.__getitem__, rows[s]))",
        GROUPS,
    ),
    # inverses found one-sided: a.b = e without b.a = e
    (
        "groups.py",
        "two_sided = lambda a, b: rows[a][b] == e == rows[b][a]",
        "two_sided = lambda a, b: rows[a][b] == e",
        GROUPS,
    ),
    # action compatibility checked for the first generator only
    (
        "groups.py",
        "for g in ids for h in gens)",
        "for g in ids for h in gens[:1])",
        GROUPS,
    ),
    # regularity without |G| = |X|: each g -> g.x still reaches every point
    ("groups.py", "if len(elems) != len(points) or any(", "if any(", GROUPS),
    # an action whose label dict holds keys off elements x points is accepted
    (
        "groups.py",
        "        if len(act) != len(group) * len(carrier):\n",
        "        if False:\n",
        ACTION_KEYS,
    ),
    # the commuting pairs counted by comparing each row with itself: every
    # group then counts |G|^2, and same-profile groups go to the search
    (
        "catalog.py",
        "chain.from_iterable(zip(*rows))",
        "chain.from_iterable(rows)",
        COMMUTING,
    ),
    # the reader takes every mapping as drawn from the carriers
    (
        "document.py",
        "                checked = len(mapping) == size\n"
        "            except (KeyError, TypeError):  # a label off the carriers, or unhashable\n"
        "                checked = False\n",
        "                checked = True\n"
        "            except (KeyError, TypeError):  # a label off the carriers, or unhashable\n"
        "                checked = True\n",
        DOCUMENT,
    ),
    # the reader reads a mapping into its indexed form when its keys are the
    # source carrier, whatever its values
    (
        "document.py",
        "list(map(index.__getitem__, pick(mapping)))",
        "[index.get(y, 0) for y in pick(mapping)]",
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
    # the form constructor without its tuple fallback: a carrier over 256
    # points can no longer be encoded
    ("model.py", "        return tuple(images)\n", "        raise\n", INDEXED_CORE),
    # the bytes inverse with the `maketrans` arguments swapped: it returns
    # the form itself
    (
        "model.py",
        "bytes.maketrans(f, _POINTS[:n])",
        "bytes.maketrans(_POINTS[:n], f)",
        INDEXED_CORE,
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
