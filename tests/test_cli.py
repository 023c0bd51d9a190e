"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import os
import subprocess
import sys

import pytest

import spinekit.cli
from conftest import same_morphism_sets
from spinekit.cli import run_command
from spinekit.document import load_spine, serialize_group, serialize_spine
from spinekit.catalog import (
    catalog,
    classify_group,
    cyclic_group,
    dicyclic_group,
    symmetric_group,
)
from spinekit.errors import TooLarge
from spinekit.extension import extend_to_groupoid
from spinekit.generators import gen_group_action_spine, perturb_spine
from spinekit.groups import GroupTable, relabel_group
from spinekit.model import FiniteMap, GroupoidSpine
from test_closure_oracle import decode_and_sort_closure


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def z5_doc(tmp_path):
    path = tmp_path / "z5.json"
    path.write_text(serialize_spine(gen_group_action_spine(cyclic_group(5), 3)))
    return str(path)


@pytest.fixture
def mutant_doc(tmp_path):
    base = extend_to_groupoid(gen_group_action_spine(cyclic_group(3), 3)).extended
    path = tmp_path / "mutant.json"
    path.write_text(serialize_spine(perturb_spine(base, 5)))
    return str(path)


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()

    def test_no_args_usage_error(self, capsys):
        assert run_command([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, z5_doc):
        proc = subprocess.run(
            [sys.executable, "-m", "spinekit", "validate", z5_doc],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pass" in proc.stdout


class TestValidateAndRegularity:
    def test_validate_pass(self, capsys, z5_doc):
        code, out, _ = run(capsys, "validate", z5_doc)
        assert code == 0 and "validation: pass" in out

    def test_validate_mutant_fails_with_witness(self, capsys, mutant_doc):
        code, out, _ = run(capsys, "validate", mutant_doc)
        # a mutant fails validation (exit 1) or only regularity (exit 0 here)
        if code == 1:
            assert "validation: fail" in out
        else:
            code2, out2, _ = run(capsys, "regularity", mutant_doc)
            assert code2 == 1 and "regularity: fail" in out2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/nope.json")
        assert code == 2 and err

    def test_bad_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "error" in err

    def test_regularity_pass(self, capsys, z5_doc):
        code, out, _ = run(capsys, "regularity", z5_doc)
        assert code == 0 and "regularity: pass" in out


class TestExtendAndExtract:
    def test_extend_conservative(self, capsys, z5_doc, tmp_path):
        out_path = tmp_path / "ext.json"
        code, out, _ = run(capsys, "extend", z5_doc, "--out", str(out_path))
        assert code == 0
        assert "conservative: true" in out
        extended, _ = load_spine(out_path.read_text())
        assert len(extended.pairs) == 9

    def test_extend_non_coset_latin(self, capsys, tmp_path):
        doc = tmp_path / "latin.json"
        code, out, _ = run(
            capsys,
            "gen",
            "--kind",
            "latin-square",
            "--order",
            "5",
            "--no-coset",
            "--seed",
            "1",
            "--out",
            str(doc),
        )
        assert code == 0
        code, out, _ = run(capsys, "extend", str(doc))
        assert code == 1
        assert "conservative: false" in out
        assert "added on (1,2)" in out

    def test_extend_failed_write_prints_no_report(self, capsys, z5_doc, tmp_path):
        out_path = tmp_path / "missing" / "ext.json"
        code, out, err = run(capsys, "extend", z5_doc, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_extract_affine_seven(self, capsys, tmp_path):
        doc = tmp_path / "affine7.json"
        assert run(capsys, "gen", "--kind", "affine-config", "--prime", "7",
                   "--out", str(doc))[0] == 0
        code, out, _ = run(capsys, "extract", str(doc), "--object", "1")
        assert code == 0
        assert "class: C7" in out
        assert "group order: 7" in out
        # the table grid: header plus seven rows
        table_lines = out.split("cayley table:\n")[1].strip("\n").split("\n")
        assert len(table_lines) == 8

    def test_extract_with_identity(self, capsys, tmp_path):
        doc = tmp_path / "affine5.json"
        run(capsys, "gen", "--kind", "affine-config", "--prime", "5", "--out", str(doc))
        code, out, _ = run(
            capsys, "extract", str(doc), "--object", "2", "--identity", "3"
        )
        assert code == 0
        assert "fiber group at 3: identity 3" in out
        assert "fiber class: C5" in out

    def test_extract_above_catalog_order(self, capsys, tmp_path):
        doc = tmp_path / "z32.json"
        assert run(capsys, "gen", "--kind", "group-action", "--group", "Z32",
                   "--objects", "3", "--out", str(doc))[0] == 0
        code, out, err = run(capsys, "extract", str(doc), "--object", "1")
        assert code == 0 and err == ""
        assert "group order: 32" in out
        assert "class: unclassified(order=32); profile: 1^1 2^1 4^2 8^4 16^8 32^16\n" in out

    def test_extract_non_coset_latin_is_not_regular(self, capsys, tmp_path):
        # a valid regular two-object input whose closure, S5 at each object,
        # cannot act regularly on five points: a failed check, not bad input
        doc = tmp_path / "latin.json"
        assert run(capsys, "gen", "--kind", "latin-square", "--order", "5",
                   "--no-coset", "--seed", "1", "--out", str(doc))[0] == 0
        code, out, err = run(capsys, "extract", str(doc), "--object", "1")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[0] == "regularity: fail" and len(lines) == 11
        assert lines[1] == "  Mor(1,1) hits (0 -> 0) 24 times, expected exactly 1"
        # an unknown object is still an input error
        code, out, err = run(capsys, "extract", str(doc), "--object", "9")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_extract_unknown_object(self, capsys, z5_doc):
        code, _, err = run(capsys, "extract", z5_doc, "--object", "9")
        assert code == 2 and err

    def test_extract_bad_identity_prints_nothing(self, capsys, z5_doc):
        code, out, err = run(
            capsys, "extract", z5_doc, "--object", "1", "--identity", "9"
        )
        assert code == 2
        assert out == ""
        assert err == "error: '9' is not a carrier element\n"


class TestExitCodes:
    def test_theorem_violation_is_internal_error(self, capsys, z5_doc, monkeypatch):
        import spinekit.cli
        from spinekit.errors import TheoremViolation

        def broken(spine):
            raise TheoremViolation("closure lost a morphism")

        monkeypatch.setattr(spinekit.cli, "extend_to_groupoid", broken)
        code, out, err = run(capsys, "extend", z5_doc)
        assert code == 3
        assert out == ""
        assert err == "internal error: closure lost a morphism\n"

    def test_broken_pipe_is_not_an_input_error(self, capsys, z5_doc, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run_command(["extract", z5_doc, "--object", "1"])
        monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("gen_group_action_spine", ["gen", "--kind", "group-action", "--group", "Z5"]),
            ("extend_to_groupoid", ["extend", "@z5"]),
            ("coset_test", ["coset", "Z5", "--set", "0"]),
        ],
    )
    def test_out_of_memory_is_exit_2(self, capsys, z5_doc, monkeypatch, name, argv):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(spinekit.cli, name, exhausted)
        argv = [z5_doc if a == "@z5" else a for a in argv]
        assert run(capsys, *argv) == (2, "", "error: out of memory\n")

    def test_reader_quitting_early(self, capsys, tmp_path):
        # the report (about 160 KB) outgrows the pipe buffer, so the
        # process is still writing when the reader closes its end
        doc = tmp_path / "z32.json"
        assert run(capsys, "gen", "--kind", "group-action", "--group", "Z32",
                   "--objects", "3", "--out", str(doc))[0] == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinekit", "extract", str(doc), "--object", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert head[0] == b"object: 1\n"
        assert err == b""


class TestGroupSpecLimit:
    """`resolve_group_spec` refuses Zn past the closure's budget of n^2
    products before it builds any table."""

    @pytest.fixture
    def built(self, monkeypatch):
        orders = []
        monkeypatch.setattr(spinekit.cli, "cyclic_group", lambda n: orders.append(n) or "Z")
        return orders

    def test_513_is_refused_before_any_table(self, built):
        with pytest.raises(TooLarge, match="'Z513' too large: Z513 has 263169 products"):
            spinekit.cli.resolve_group_spec("Z513")
        assert built == []

    @pytest.mark.parametrize("n", [257, 512])
    def test_up_to_512_is_built(self, built, n):
        assert spinekit.cli.resolve_group_spec(f"Z{n}") == "Z" and built == [n]

    @pytest.mark.parametrize(
        "spec, argv",
        [
            ("Z3000", ["coset", "Z3000", "--set", "0"]),
            ("Z100000", ["relabel", "Z100000", "--d", "0"]),
            ("Z1000", ["gen", "--kind", "group-action", "--group", "Z1000", "--objects", "8"]),
        ],
    )
    def test_cli_exits_2_with_one_line(self, capsys, built, spec, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, built) == (2, "", [])
        assert err.startswith(f"error: group spec '{spec}' too large") and err.count("\n") == 1


class TestPrintCayley:
    """`print_cayley` prints the rows of the table through padded labels,
    as the product read cell by cell would print them."""

    @staticmethod
    def by_cells(title, table):
        order = [table.identity] + [e for e in table.elements if e != table.identity]
        width = max(len(e) for e in order + ["*"])
        lines = [title, " ".join(x.rjust(width) for x in ["*", *order])]
        for a in order:
            lines.append(" ".join(x.rjust(width) for x in [a] + [table.op(a, b) for b in order]))
        return "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize(
        "table",
        [
            symmetric_group(3),
            relabel_group(symmetric_group(3), "120"),
            relabel_group(symmetric_group(4), "1032"),
            cyclic_group(1),
            cyclic_group(257),
        ],
        ids=["S3", "S3-relabeled", "S4-relabeled", "Z1", "Z257"],
    )
    def test_matches_the_cells(self, capsys, table):
        spinekit.cli.print_cayley("table:", table)
        assert capsys.readouterr().out == self.by_cells("table:", table)


class TestCosetAndPartition:
    def test_coset_true(self, capsys):
        code, out, _ = run(capsys, "coset", "Z6", "--set", "1,3,5")
        assert code == 0
        assert out.count(": true") == 5
        assert "subgroup: 0,2,4" in out
        assert "translator: 1" in out

    def test_coset_false(self, capsys):
        code, out, _ = run(capsys, "coset", "Z6", "--set", "0,1,3")
        assert code == 1
        assert out.count(": false") == 5
        assert "subgroup" not in out

    def test_coset_s3_and_v4_specs(self, capsys):
        code, out, _ = run(capsys, "coset", "S3", "--set", "012,102")
        assert code == 0
        code, out, _ = run(capsys, "coset", "V4", "--set", "0.0,1.1")
        assert code == 0

    def test_coset_unknown_element(self, capsys):
        code, _, err = run(capsys, "coset", "Z6", "--set", "0,9")
        assert code == 2 and err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coset", "Z6", "--set", ",0"],
            ["coset", "Z6", "--set", ""],
            ["partition", "Z6", "--sets", ",", "0"],
        ],
        ids=["leading-comma", "empty-set", "empty-member"],
    )
    def test_empty_entry_is_not_an_element(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: '' is not a group element\n")

    def test_coset_group_file(self, capsys, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(serialize_group(cyclic_group(4)))
        code, out, _ = run(capsys, "coset", str(path), "--set", "0,2")
        assert code == 0

    @pytest.mark.parametrize(
        "edit, err",
        [
            # the identity is a label string, never a JSON number
            (
                lambda doc: doc.update(identity=0),
                "error: identity: expected a string, got int\n",
            ),
            # every product key names a pair of elements
            (
                lambda doc: doc["product"].update({"zz|q": "1"}),
                "error: $: product key ('zz', 'q') is not a pair of elements\n",
            ),
        ],
        ids=["numeric-identity", "stray-product-key"],
    )
    def test_group_file_is_not_coerced(self, capsys, tmp_path, edit, err):
        doc = json.loads(serialize_group(cyclic_group(3)))
        edit(doc)
        path = tmp_path / "group.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "coset", str(path), "--set", "0") == (2, "", err)

    def test_bad_group_spec(self, capsys):
        code, _, err = run(capsys, "coset", "S9", "--set", "0")
        assert code == 2 and err
        code, _, err = run(capsys, "coset", "Nope", "--set", "0")
        assert code == 2 and err

    def test_partition_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "partition", "Z6", "--sets", "0,2,4", "1,3,5")
        assert code == 0 and "pass" in out
        code, out, _ = run(capsys, "partition", "Z6", "--sets", "0,1,3", "1,2,4")
        assert code == 1 and "overlap" in out


class TestGen:
    def test_group_action_document(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "group-action", "--group", "Z5", "--objects", "3"
        )
        assert code == 0
        spine, meta = load_spine(out)
        assert meta["generator"]["kind"] == "group-action"
        assert same_morphism_sets(spine, gen_group_action_spine(cyclic_group(5), 3))

    def test_gen_deterministic(self, capsys):
        a = run(capsys, "gen", "--kind", "latin-square", "--order", "5",
                "--no-coset", "--seed", "9")
        b = run(capsys, "gen", "--kind", "latin-square", "--order", "5",
                "--no-coset", "--seed", "9")
        assert a == b and a[0] == 0

    def test_gen_perturbed(self, capsys, z5_doc):
        code, out, _ = run(
            capsys, "gen", "--kind", "perturbed", "--base", z5_doc, "--seed", "4"
        )
        assert code == 0
        spine, _ = load_spine(out)
        code2, _, _ = run(capsys, "regularity", z5_doc)
        assert code2 == 0

    def test_gen_missing_params(self, capsys):
        assert run(capsys, "gen", "--kind", "group-action")[0] == 2
        assert run(capsys, "gen", "--kind", "affine-config")[0] == 2
        assert run(capsys, "gen", "--kind", "latin-square")[0] == 2
        assert run(capsys, "gen", "--kind", "perturbed")[0] == 2

    def test_gen_not_prime(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "affine-config", "--prime", "6")
        assert code == 2 and "prime" in err

    def test_gen_search_exhausted_is_math_failure(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "latin-square", "--order", "3", "--no-coset"
        )
        assert code == 1
        assert "search exhausted" in out


class TestRelabel:
    def test_relabel_z6(self, capsys):
        code, out, _ = run(capsys, "relabel", "Z6", "--d", "2")
        assert code == 0
        assert "identity: 2" in out
        assert "class: C6" in out

    def test_relabel_group_file(self, capsys, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(serialize_group(cyclic_group(3)))
        out_path = tmp_path / "relabeled.json"
        code, out, _ = run(
            capsys, "relabel", str(path), "--d", "1", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.exists()

    def test_relabel_failed_write_prints_no_report(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "g.json"
        code, out, err = run(capsys, "relabel", "Z6", "--d", "2", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_relabel_unknown_element(self, capsys):
        code, _, err = run(capsys, "relabel", "Z6", "--d", "9")
        assert code == 2 and err


class TestDeterminism:
    def test_extract_byte_identical_runs(self, capsys, z5_doc):
        a = run(capsys, "extract", z5_doc, "--object", "1")
        b = run(capsys, "extract", z5_doc, "--object", "1")
        assert a == b

    def test_coset_byte_identical_runs(self, capsys):
        a = run(capsys, "coset", "S3", "--set", "012,120,201")
        b = run(capsys, "coset", "S3", "--set", "012,120,201")
        assert a == b

    def test_one_parser_keeps_no_options_between_commands(self, capsys, z5_doc, tmp_path):
        out = tmp_path / "full.json"
        assert run(capsys, "extend", z5_doc, "--out", str(out))[0] == 0
        out.unlink()
        assert run(capsys, "extend", z5_doc)[0] == 0
        assert not out.exists()
        gen = ["gen", "--kind", "latin-square", "--order", "5"]
        non_coset = run(capsys, *gen, "--no-coset", "--seed", "3")
        coset = run(capsys, *gen)
        assert json.loads(non_coset[1])["meta"]["generator"]["want_coset"] is False
        assert json.loads(coset[1])["meta"]["generator"]["want_coset"] is True
        proc = subprocess.run(
            [sys.executable, "-m", "spinekit", *gen], capture_output=True, text=True
        )
        assert coset == (proc.returncode, proc.stdout, proc.stderr)
        assert run(capsys, "extract", z5_doc)[0] == 2  # --object is still required


class TestValidateOnce:
    @pytest.fixture
    def validate_calls(self, monkeypatch):
        import spinekit

        calls = []
        original = spinekit.model.validate_spine

        def counted(spine):
            calls.append(spine)
            return original(spine)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("spinekit") and (
                getattr(module, "validate_spine", None) is original
            ):
                monkeypatch.setattr(module, "validate_spine", counted)
        return calls

    @pytest.mark.parametrize(
        "argv", [["extend"], ["extract", "--object", "1"]], ids=["extend", "extract"]
    )
    def test_one_validation_per_command(self, capsys, z5_doc, validate_calls, argv):
        code, _, _ = run(capsys, argv[0], z5_doc, *argv[1:])
        assert code == 0
        assert len(validate_calls) == 1


class TestNoLabelViews:
    """The engine reads groups through their integer tables: no command, and
    no classification, builds the label view `product` of any table it
    makes, the catalog's included."""

    def test_commands_and_classification(self, capsys, tmp_path, z5_doc, monkeypatch):
        tables, check = [], GroupTable._check

        def recorded(self, *args):
            tables.append(self)
            return check(self, *args)

        monkeypatch.setattr(GroupTable, "_check", recorded)
        catalog.cache_clear()  # other tests read the catalog's label views
        closed, out = str(tmp_path / "z5-full.json"), str(tmp_path / "s4-1032.json")
        assert run(capsys, "extend", z5_doc, "--out", closed)[0] == 0
        assert run(capsys, "extract", closed, "--object", "2", "--identity", "3")[0] == 0
        assert run(capsys, "relabel", "S4", "--d", "1032", "--out", out)[0] == 0
        assert run(capsys, "coset", "Z6", "--set", "1,3,5")[0] == 0
        assert classify_group(dicyclic_group(6)).name == "Dic6"
        assert {len(t) for t in tables} >= {5, 24, 6} and len(tables) > len(catalog())
        assert [t for t in tables if "product" in vars(t)] == []


class TestExtractReusesClosure:
    """`extract` on a document that is already a groupoid on every pair reads
    the group off it; any other document is closed once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import spinekit

        calls = {"_close_to_groupoid": 0, "_regularity_unchecked": 0}
        for name in calls:
            original = getattr(spinekit.extension, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("spinekit") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "identity", [[], ["--identity", "3"]], ids=["plain", "identity"]
    )
    def test_closed_document_is_not_closed_again(
        self, capsys, z5_doc, tmp_path, calls, identity
    ):
        full = str(tmp_path / "full.json")
        assert run(capsys, "extend", z5_doc, "--out", full)[0] == 0
        calls.update(dict.fromkeys(calls, 0))
        code, out, _ = run(capsys, "extract", full, "--object", "1", *identity)
        assert code == 0 and "group order: 5" in out
        assert calls == {"_close_to_groupoid": 0, "_regularity_unchecked": 0}

    def test_raw_document_is_closed_once(self, capsys, z5_doc, calls):
        code, out, _ = run(capsys, "extract", z5_doc, "--object", "1")
        assert code == 0 and "group order: 5" in out
        assert calls == {"_close_to_groupoid": 1, "_regularity_unchecked": 0}

    def test_closed_document_builds_no_graph(self, capsys, tmp_path, monkeypatch):
        # every mapping is read into its indexed form, and no layer of
        # extend or extract reads a map's string graph
        full, again = str(tmp_path / "full.json"), str(tmp_path / "again.json")
        closed = extend_to_groupoid(gen_group_action_spine(symmetric_group(4), 5)).extended
        (tmp_path / "full.json").write_text(serialize_spine(closed))
        built, loaded = [], []
        lazy, load = FiniteMap.__getattr__, spinekit.cli.load_spine

        def spy(f, name):
            built.append(name)
            return lazy(f, name)

        def kept(text):
            loaded.append(load(text))
            return loaded[-1]

        monkeypatch.setattr(FiniteMap, "__getattr__", spy)
        monkeypatch.setattr(spinekit.cli, "load_spine", kept)
        assert run(capsys, "extend", full, "--out", again)[0] == 0
        code, out, _ = run(capsys, "extract", again, "--object", "5", "--identity", "0123")
        assert code == 0 and "group order: 24" in out and "fiber group at 0123" in out
        assert built == [] and len(loaded) == 2
        for spine, _ in loaded:
            maps = [f for fams in spine.morphisms.values() for f in fams]
            assert len(maps) == 25 * 24
            assert all(f._indexed and "graph" not in vars(f) for f in maps)


class TestSoftLimit:
    def test_z64_on_eight_objects_end_to_end(self, capsys, tmp_path):
        # the README's soft limit: 64-element carriers on 8 objects
        doc, full = str(tmp_path / "z64.json"), str(tmp_path / "z64-full.json")
        gen = ["--kind", "group-action", "--group", "Z64", "--objects", "8"]
        assert run(capsys, "gen", *gen, "--out", doc)[0] == 0
        assert run(capsys, "extend", doc, "--out", full)[0] == 0
        code, out, _ = run(capsys, "validate", full)
        assert code == 0 and "validation: pass" in out
        code, out, _ = run(capsys, "extract", full, "--object", "8", "--identity", "5")
        assert code == 0 and "group order: 64" in out


class TestByteAndTupleForms:
    """Carriers of up to 256 points take bytes forms, larger ones tuples of
    ints; both run the pipeline end to end."""

    @pytest.mark.parametrize("order", [256, 257])
    def test_action_spine_end_to_end(self, capsys, tmp_path, order):
        doc, full = tmp_path / "doc.json", tmp_path / "full.json"
        gen = ["--kind", "group-action", "--group", f"Z{order}", "--objects", "2"]
        assert run(capsys, "gen", *gen, "--out", str(doc))[0] == 0
        code, out, _ = run(capsys, "extend", str(doc), "--out", str(full))
        assert (code, out) == (0, "conservative: true\niterations: 2\nobjects: 2\n")
        spine, _ = load_spine(doc.read_bytes())
        morphisms, iterations, added = decode_and_sort_closure(spine)
        assert (iterations, added) == (2, {})
        closed, _ = load_spine(full.read_bytes())
        assert closed.morphisms == morphisms  # the same maps, in the same order
        oracle = GroupoidSpine(closed.objects, closed.sets, closed.pairs, morphisms)
        assert full.read_text() == serialize_spine(oracle)
        form = closed.morphisms[("2", "1")][0]._indexed[2]
        assert isinstance(form, bytes if order <= 256 else tuple)
        # extract prints a Cayley table of |G|^2 long graph keys (over 100
        # MB here): write it to a file and read it line by line
        table = tmp_path / "extract.txt"
        with open(table, "w") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "spinekit", "extract", str(full), "--object", "2",
                 "--identity", "5"],
                stdout=sink, stderr=subprocess.PIPE, text=True,
            )
        assert (proc.returncode, proc.stderr) == (0, "")
        with open(table) as lines:
            head = [next(lines) for _ in range(4)]
            rest = [line[:40] for line in lines]
        table.unlink()
        assert head[:2] == ["object: 2\n", f"group order: {order}\n"]
        assert head[2].startswith(f"class: unclassified(order={order}); profile: ")
        assert head[3] == "cayley table:\n" and len(rest) == 2 * (order + 1) + 3
        fiber = rest[order + 1 : order + 4]
        assert fiber[0] == "fiber group at 5: identity 5\n"
        assert fiber[1:] == [("fiber " + head[2])[:40], "fiber cayley table:\n"]


class TestHashSeeds:
    # graph keys of Mor(2, 1) tie: both maps read "a>c,b>c,b>c"
    TIES = json.dumps({
        "format_version": 1, "objects": ["1", "2"],
        "sets": {"1": ["c", "c,b>c"], "2": ["a", "b"]}, "pairs": [["1", "2"]],
        "morphisms": {"1|2": [{"c": "a", "c,b>c": "b"}, {"c": "b", "c,b>c": "a"}]},
    })

    def test_tied_graph_keys_go_in_form_order(self, tmp_path):
        doc = tmp_path / "ties.json"
        doc.write_text(self.TIES)
        texts = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "spinekit", "extend", str(doc), "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        back = json.loads(texts[0])["morphisms"]["2|1"]
        assert back == [{"a": "c", "b": "c,b>c"}, {"a": "c,b>c", "b": "c"}]

    def test_held_tied_family_does_not_depend_on_list_order(self, tmp_path, capsys):
        # Mor(2, 1) holds both of its maps, so the closure writes it as it
        # is held; its two maps tie on the graph key "a>c,b>c,b>c"
        back = [{"a": "c", "b": "c,b>c"}, {"a": "c,b>c", "b": "c"}]
        texts = []
        for family in (back, back[::-1]):
            doc = json.loads(self.TIES)
            doc["pairs"].append(["2", "1"])
            doc["morphisms"]["2|1"] = family
            path, out = tmp_path / "ties.json", tmp_path / "closed.json"
            path.write_text(json.dumps(doc))
            assert run(capsys, "extend", str(path), "--out", str(out))[0] == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["morphisms"]["2|1"] == back
