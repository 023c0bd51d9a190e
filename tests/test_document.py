"""Spine document serialization: round trips, schema diagnostics."""

import json

import pytest

from conftest import translation_spine, trivial_spine
from spinekit.catalog import cyclic_group, symmetric_group
from spinekit.document import (
    load_group,
    load_spine,
    parse_document,
    serialize_group,
    serialize_spine,
)
from spinekit.errors import DocumentSyntaxError, SchemaError, ValidationError
from spinekit.extension import extend_to_groupoid
from spinekit.generators import (
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)


def generator_outputs():
    return [
        gen_group_action_spine(cyclic_group(5), 3),
        gen_group_action_spine(symmetric_group(3), 2),
        gen_affine_config(7),
        latin_family_spine(gen_latin_square_family(4, want_coset=True)),
        latin_family_spine(gen_latin_square_family(5, want_coset=False, seed=2)),
        extend_to_groupoid(gen_affine_config(3)).extended,
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("idx", range(6))
    def test_byte_exact(self, idx):
        spine = generator_outputs()[idx]
        text = serialize_spine(spine)
        parsed, meta = load_spine(text)
        assert meta is None
        assert serialize_spine(parsed) == text

    def test_graph_identical(self):
        spine = gen_group_action_spine(cyclic_group(4), 3)
        parsed = parse_document(serialize_spine(spine))
        assert parsed.morphism_sets_equal(spine)
        assert parsed.morphisms == spine.morphisms

    def test_meta_preserved(self):
        spine = trivial_spine()
        meta = {"note": "fixture", "params": [1, 2]}
        text = serialize_spine(spine, meta=meta)
        _, got = load_spine(text)
        assert got == meta
        # meta rides along byte-exactly too
        parsed, got2 = load_spine(text)
        assert serialize_spine(parsed, meta=got2) == text

    def test_minimal_document_parses(self):
        doc = {
            "format_version": 1,
            "objects": ["1"],
            "sets": {"1": ["*"]},
            "pairs": [["1", "1"]],
            "morphisms": {"1|1": [{"*": "*"}]},
        }
        spine = parse_document(json.dumps(doc))
        assert spine.morphism_sets_equal(trivial_spine())


class TestSchemaDiagnostics:
    def base_doc(self):
        return json.loads(serialize_spine(translation_spine(3, 2)))

    def test_bad_json(self):
        with pytest.raises(DocumentSyntaxError):
            load_spine("{not json")

    def test_bad_utf8(self):
        with pytest.raises(DocumentSyntaxError):
            load_spine(b"\xff\xfe{}")

    def test_unknown_top_level_key(self):
        doc = self.base_doc()
        doc["extra_stuff"] = 1
        with pytest.raises(SchemaError, match="extra_stuff"):
            load_spine(json.dumps(doc))

    def test_missing_key(self):
        doc = self.base_doc()
        del doc["pairs"]
        with pytest.raises(SchemaError, match="pairs"):
            load_spine(json.dumps(doc))

    def test_wrong_version(self):
        doc = self.base_doc()
        doc["format_version"] = 2
        with pytest.raises(SchemaError, match="format_version"):
            load_spine(json.dumps(doc))

    def test_non_bijective_mapping_names_index(self):
        doc = self.base_doc()
        doc["morphisms"]["1|2"][1] = {"0": "1", "1": "1", "2": "2"}
        with pytest.raises(SchemaError) as exc:
            load_spine(json.dumps(doc))
        assert 'morphisms."1|2"[1]' in str(exc.value)

    def test_pipe_in_label_rejected(self):
        doc = self.base_doc()
        doc["objects"].append("a|b")
        with pytest.raises(SchemaError, match=r"\|"):
            load_spine(json.dumps(doc))

    def test_pair_key_mismatch(self):
        doc = self.base_doc()
        doc["morphisms"]["2|1"] = []
        with pytest.raises(SchemaError, match="2,1|not a listed pair"):
            load_spine(json.dumps(doc))

    def test_unknown_object_in_pair(self):
        doc = self.base_doc()
        doc["pairs"].append(["1", "9"])
        with pytest.raises(SchemaError, match="unknown object"):
            load_spine(json.dumps(doc))

    def test_missing_carrier(self):
        doc = self.base_doc()
        del doc["sets"]["2"]
        with pytest.raises(SchemaError, match="carrier"):
            load_spine(json.dumps(doc))


class TestValidationThroughParse:
    def test_parse_document_validates(self, z3_spine):
        mutant = perturb_spine(extend_to_groupoid(z3_spine).extended, 12)
        text = serialize_spine(mutant)
        with pytest.raises(ValidationError) as exc:
            parse_document(text)
        assert exc.value.report.violations

    def test_load_spine_does_not_validate(self, z3_spine):
        mutant = perturb_spine(extend_to_groupoid(z3_spine).extended, 12)
        spine, _ = load_spine(serialize_spine(mutant))
        assert spine.morphism_sets_equal(mutant)


class TestGroupFiles:
    def test_round_trip(self):
        g = symmetric_group(3)
        text = serialize_group(g)
        again = load_group(text)
        assert again.table_equal(g)
        assert serialize_group(again) == text

    def test_inverse_optional(self):
        doc = json.loads(serialize_group(cyclic_group(4)))
        del doc["inverse"]
        g = load_group(json.dumps(doc))
        assert g.inv("1") == "3"

    @pytest.mark.parametrize(
        "entry, where",
        [(("1", "1"), "'1'"), (("zz", "q"), "'zz'"), (("2", 2), "'2'")],
        ids=["wrong-entry", "unknown-key", "non-string-value"],
    )
    def test_inverse_block_must_match_the_product(self, entry, where):
        doc = json.loads(serialize_group(cyclic_group(4)))
        key, value = entry
        doc["inverse"][key] = value
        with pytest.raises(SchemaError, match=f"inverse table is wrong at {where}"):
            load_group(json.dumps(doc))

    def test_unknown_key(self):
        doc = json.loads(serialize_group(cyclic_group(2)))
        doc["color"] = "blue"
        with pytest.raises(SchemaError, match="color"):
            load_group(json.dumps(doc))

    def test_broken_table(self):
        doc = json.loads(serialize_group(cyclic_group(3)))
        doc["product"]["1|1"] = "1"  # no longer a group
        with pytest.raises(SchemaError):
            load_group(json.dumps(doc))
