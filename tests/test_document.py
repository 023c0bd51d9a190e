"""Spine document serialization: round trips, schema diagnostics."""

import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import catalog_upto, same_morphism_sets, translation_spine, trivial_spine
from spinekit.catalog import cyclic_group, symmetric_group
from spinekit.document import (
    load_group,
    load_spine,
    parse_document,
    serialize_group,
    serialize_spine,
)
from spinekit.errors import (
    DocumentError,
    DocumentSyntaxError,
    SchemaError,
    ValidationError,
)
from spinekit.extension import extend_to_groupoid
from spinekit.generators import (
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from spinekit.groups import relabel_group
from spinekit.model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    element_index,
    encode,
    indexed_form,
    validate_spine,
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
        assert same_morphism_sets(parsed, spine)
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
        assert same_morphism_sets(spine, trivial_spine())


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

    @pytest.mark.parametrize(
        "label, message",
        [
            (7, "expected a string, got int"),
            ("", "labels may not be empty"),
            ("a|b", "label 'a|b' contains the reserved character '|'"),
        ],
        ids=["non-string", "empty", "pipe"],
    )
    @pytest.mark.parametrize(
        "where, path",
        [
            ("object", "objects[1]"),
            ("element", 'sets."1"[2]'),
            ("value", 'morphisms."1|2"[1]'),
        ],
    )
    def test_bad_label_message_and_path(self, label, message, where, path):
        doc = self.base_doc()
        if where == "object":
            doc["objects"][1] = label
        elif where == "element":
            doc["sets"]["1"][2] = label
        else:
            doc["morphisms"]["1|2"][1]["2"] = label
        with pytest.raises(SchemaError) as exc:
            load_spine(json.dumps(doc))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

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
        assert same_morphism_sets(spine, mutant)


class TestGroupFiles:
    def test_round_trip(self):
        g = symmetric_group(3)
        text = serialize_group(g)
        again = load_group(text)
        assert again == g
        assert serialize_group(again) == text

    @pytest.mark.parametrize("name", ["S3", "C2×C2", "D4", "Q8"])
    def test_product_from_the_rows(self, name):
        g = dict(catalog_upto(8))[name]
        for table in (g, relabel_group(g, g.elements[-1])):
            doc = {
                "format_version": 1,
                "elements": list(table.elements),
                "identity": table.identity,
                "product": {f"{a}|{b}": table.op(a, b) for a in table.elements for b in table.elements},
                "inverse": {a: table.inv(a) for a in table.elements},
            }
            assert serialize_group(table) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

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


SPINE_TEXT = (
    '{"format_version": 1, "objects": ["1", "2"], %s'
    '"sets": {"1": ["a", "b"], "2": ["a", "b"]}, "pairs": [["1", "2"]], '
    '"morphisms": {"1|2": [{"a": "a", "b": "b"}, %s]}}'
)


def group_text_with_repeated_product_key():
    text = serialize_group(cyclic_group(2))
    assert '"0|0": "0"' in text
    return text.replace('"0|0": "0"', '"0|0": "1",\n    "0|0": "0"', 1)


# name -> (loader, document, command reading it); each document is one that
# json.loads alone would coerce or fail on with an exception of its own
BAD_DOCUMENTS = {
    "repeated-top-level-key": (
        load_spine,
        SPINE_TEXT % ('"sets": {"1": ["a"]}, ', '{"a": "b", "b": "a"}'),
        ["validate"],
    ),
    "repeated-key-in-a-morphism": (
        load_spine,
        SPINE_TEXT % ("", '{"a": "a", "a": "b", "b": "a"}'),
        ["validate"],
    ),
    "repeated-key-in-a-group-product": (
        load_group,
        group_text_with_repeated_product_key(),
        ["coset", "--set", "0"],
    ),
    "deep-nesting": (load_spine, "[" * 100_000 + "]" * 100_000, ["validate"]),
    "over-long-integer": (
        load_spine,
        '{"format_version": ' + "9" * 5000 + "}",
        ["validate"],
    ),
}


class TestFrontEndStrictness:
    @pytest.mark.parametrize("name", BAD_DOCUMENTS)
    def test_rejected_as_syntax_error(self, name):
        load, text, _ = BAD_DOCUMENTS[name]
        with pytest.raises(DocumentSyntaxError):
            load(text)

    @pytest.mark.parametrize("name", BAD_DOCUMENTS)
    def test_cli_exits_2_with_one_line(self, name, tmp_path):
        _, text, command = BAD_DOCUMENTS[name]
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = [sys.executable, "-m", "spinekit", command[0], str(path), *command[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_repeated_key_is_named(self):
        load, text, _ = BAD_DOCUMENTS["repeated-key-in-a-morphism"]
        with pytest.raises(DocumentSyntaxError, match="repeated key 'a'"):
            load(text)


CANONICAL = [
    (load_spine, serialize_spine(gen_group_action_spine(cyclic_group(3), 2))),
    (load_group, serialize_group(symmetric_group(3))),
]

JSON_TOKENS = [b'"', b"{", b"}", b"[", b"]", b",", b":", b"|", b"-1", b"null", b"\\"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def byte_mutation(draw, text):
    """Replace a short byte range (possibly empty) by random bytes or a
    JSON token (possibly nothing)."""
    data = text.encode()
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, min(len(data), i + 8)))
    insert = draw(st.binary(max_size=8) | st.sampled_from(JSON_TOKENS))
    return data[:i] + insert + data[j:]


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, (*path, key))


@st.composite
def json_mutation(draw, text):
    """Replace, delete or (in an object) rename one node of the document."""
    doc = json.loads(text)
    path = draw(st.sampled_from(list(node_paths(doc))))
    if not path:
        return json.dumps(draw(json_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["replace", "delete", "rename"]))
    if kind == "replace":
        parent[path[-1]] = draw(json_values)
    elif kind == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=4))] = parent.pop(path[-1])
    return json.dumps(doc)


@given(st.sampled_from(CANONICAL), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_load_or_raise_a_document_error(case, data):
    load, text = case
    mutated = data.draw(byte_mutation(text) | json_mutation(text))
    try:
        load(mutated)
    except DocumentError:
        pass


class _Pairs(list):
    """A JSON object as the list of its pairs, a repeated key kept."""


def dump_pairs(node) -> str:
    """JSON text of a tree of `_Pairs` objects, lists and scalars."""
    if isinstance(node, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump_pairs(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump_pairs, node)) + "]"
    return json.dumps(node)


def containers(node):
    """Every object and list of a `_Pairs` tree, at any depth."""
    yield node
    for child in (v for _, v in node) if isinstance(node, _Pairs) else node:
        if isinstance(child, list):
            yield from containers(child)


HOSTILE_BASES = [
    serialize_spine(
        gen_group_action_spine(cyclic_group(3), 2),
        meta={"generator": {"kind": "x", "seeds": [{"a": 1}, []]}, "": None},
    ),
    serialize_spine(latin_family_spine(gen_latin_square_family(5, False, seed=1))),
    # a family in another key order
    SPINE_TEXT % ('"meta": {"m": {"n": [{"o": 1}]}}, ', '{"b": "a", "a": "b"}'),
]


LABELS = st.sampled_from(["0", "1", "2", "a", "b", "c", "9", "012"])


@st.composite
def hostile_document(draw):
    """A document with up to three keys added, each a repeated or a new key
    in any object at any depth, perhaps one value, at any depth, replaced
    by another, and perhaps one value of an object copied to another key
    (in a mapping, a repeated image)."""
    tree = json.loads(draw(st.sampled_from(HOSTILE_BASES)), object_pairs_hook=_Pairs)
    nodes = [n for n in containers(tree) if n]
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from([n for n in nodes if isinstance(n, _Pairs)]))
        key, value = draw(st.sampled_from(node))
        key = draw(st.just(key) | LABELS)
        node.insert(draw(st.integers(0, len(node))), (key, draw(st.just(value) | json_values | LABELS)))
    if draw(st.booleans()):
        node = draw(st.sampled_from(nodes))
        at = draw(st.integers(0, len(node) - 1))
        value = draw(json_values | LABELS)
        node[at] = (node[at][0], value) if isinstance(node, _Pairs) else value
    if draw(st.booleans()):  # one image of a mapping repeated
        mapping = draw(st.sampled_from([n for n in nodes if isinstance(n, _Pairs) and len(n) > 1]))
        a, b = draw(st.permutations(range(len(mapping))))[:2]
        mapping[a] = (mapping[a][0], mapping[b][1])
    return dump_pairs(tree)


class TestHostileDocuments:
    """A repeated key at any depth is a syntax error, whatever else is
    wrong; a document that loads reads each map as the map of its
    mapping."""

    @given(hostile_document())
    @settings(max_examples=300, deadline=None)
    def test_repeated_keys_at_any_depth(self, text):
        tree = json.loads(text, object_pairs_hook=_Pairs)
        objects = [n for n in containers(tree) if isinstance(n, _Pairs)]
        repeated = any(len({k for k, _ in n}) < len(n) for n in objects)
        try:
            spine, meta = load_spine(text)
        except DocumentError as exc:
            if repeated:
                assert type(exc) is DocumentSyntaxError and "repeated key" in str(exc)
            return
        assert not repeated
        doc = json.loads(text)
        assert meta == doc.get("meta")
        for (i, j), fams in spine.morphisms.items():
            assert list(fams) == [FiniteMap(i, j, m) for m in doc["morphisms"][f"{i}|{j}"]]

    def test_repeated_key_wins_over_an_earlier_schema_error(self):
        text = SPINE_TEXT % ("", '{"a": "a", "a": "b", "b": "a"}')
        text = text.replace('"objects": ["1", "2"]', '"objects": [1, "2"]')
        with pytest.raises(DocumentSyntaxError, match="repeated key 'a'"):
            load_spine(text)

    @pytest.mark.parametrize(
        "meta", ['{"a": 1, "a": 2}', '[{"b": {"c": 1, "c": 1}}]', '{"d": [[{"e": 0, "e": 0}]]}']
    )
    def test_repeated_key_in_meta(self, meta):
        with pytest.raises(DocumentSyntaxError, match="repeated key"):
            load_spine(SPINE_TEXT % (f'"meta": {meta}, ', '{"a": "b", "b": "a"}'))


SMALL_GROUPS = [g for _, g in catalog_upto(6) if len(g) > 1]


@st.composite
def generated_spine(draw):
    """A spine from each `gen` kind, with the meta block the CLI writes."""
    kind = draw(st.sampled_from(["group-action", "affine-config", "latin-square", "perturbed"]))
    seed = draw(st.integers(0, 20))
    if kind == "affine-config":
        spine = gen_affine_config(draw(st.sampled_from([2, 3, 5, 7])))
    elif kind == "latin-square":
        order = draw(st.integers(2, 6))
        coset = order < 5 or draw(st.booleans())
        spine = latin_family_spine(gen_latin_square_family(order, coset, seed))
    else:
        spine = gen_group_action_spine(
            draw(st.sampled_from(SMALL_GROUPS)), draw(st.integers(1, 3))
        )
        if kind == "perturbed":
            spine = perturb_spine(spine, seed)
    return spine, {"generator": {"kind": kind, "seed": seed}}


@given(generated_spine())
@settings(max_examples=60, deadline=None)
def test_serialize_load_round_trip_for_every_generator_kind(generated):
    spine, meta = generated
    text = serialize_spine(spine, meta=meta)
    assert serialize_spine(*load_spine(text)) == text


def serialize_oracle(spine, meta=None):
    """The document writer before the direct emitter: the whole document
    through json.dumps with indent=2."""
    doc = {"format_version": 1}
    doc["objects"] = list(spine.objects)
    doc["sets"] = {o: list(spine.sets[o].elements) for o in spine.objects}
    pairs = spine.sorted_pairs()
    doc["pairs"] = [[i, j] for i, j in pairs]
    doc["morphisms"] = {
        f"{i}|{j}": [{x: f(x) for x in spine.sets[i].elements} for f in spine.morphisms[(i, j)]]
        for i, j in pairs
    }
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters, non-ASCII, the JSON-legal line
# separators U+2028/U+2029, a lone surrogate, and "|", whose pair keys collide
HOSTILE = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\u2029",
                     "\ud800", "😀", "|", "a", "b", "%", "/"]),
    min_size=1,
    max_size=3,
)

meta_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | HOSTILE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(HOSTILE, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def hostile_spine(draw):
    """A spine built through the API, unvalidated: hostile labels, carriers
    of one element or more, families of any size (empty ones too), and
    images that may lie outside the target carrier."""
    objects = draw(st.lists(HOSTILE, min_size=1, max_size=3, unique=True))
    sets = {
        o: FiniteSet(o, draw(st.lists(HOSTILE, min_size=1, max_size=4, unique=True)))
        for o in objects
    }
    pairs = draw(
        st.lists(st.sampled_from([(i, j) for i in objects for j in objects]), unique=True)
    )
    morphisms = {}
    for i, j in pairs:
        source = sets[i].elements
        images = HOSTILE | st.sampled_from(sets[j].elements)
        morphisms[(i, j)] = [
            FiniteMap(i, j, dict(zip(source, draw(
                st.lists(images, min_size=len(source), max_size=len(source), unique=True)
            ))))
            for _ in range(draw(st.integers(0, 3)))
        ]
    return GroupoidSpine(objects, sets, pairs, morphisms)


class TestWriterOracle:
    @given(hostile_spine(), st.none() | st.just({}) | st.just([]) | meta_values)
    @settings(max_examples=200, deadline=None)
    @example(  # pair keys collide: ("1", "2|3") and ("1|2", "3") both give "1|2|3"
        GroupoidSpine(
            ["1", "1|2", "3", "2|3"],
            {o: FiniteSet(o, ["x"]) for o in ["1", "1|2", "3", "2|3"]},
            [("1|2", "3"), ("1", "2|3")],
            {("1|2", "3"): [FiniteMap("1|2", "3", {"x": "y"})], ("1", "2|3"): []},
        ),
        {"nested": {"deep": [1.5, None, True, {}, []]}, "": -0.0},
    )
    def test_matches_json_dumps(self, spine, meta):
        assert serialize_spine(spine, meta) == serialize_oracle(spine, meta)

    def test_generated_documents_match_json_dumps(self):
        for spine in generator_outputs():
            meta = {"generator": {"kind": "x", "seed": 1}}
            assert serialize_spine(spine, meta) == serialize_oracle(spine, meta)

    def test_map_undefined_on_a_carrier_element(self):
        sets = {"1": FiniteSet("1", ["a", "b", "c"]), "2": FiniteSet("2", ["a", "b", "c"])}
        spine = GroupoidSpine(
            ["1", "2"], sets, [("1", "2")],
            {("1", "2"): [FiniteMap("1", "2", {"a": "b", "c": "a"})]},
        )
        with pytest.raises(KeyError) as want:
            serialize_oracle(spine)
        with pytest.raises(KeyError) as got:
            serialize_spine(spine)
        assert got.value.args == want.value.args == ("b",)


# labels whose graph keys interleave: separators inside labels, a prefix
# beside its extensions, digits that sort apart from their values, non-ASCII,
# format markers
KEY_LABELS = [",", ">", "1", "1!", "10", "2", "a,b", "a>b", ",>", "é", "Ω>", "x y", "%", "%s"]


@st.composite
def shuffled_document(draw):
    """The text of a two-object document over KEY_LABELS whose maps are
    injective, every mapping's JSON keys in a drawn order."""
    src = draw(st.lists(st.sampled_from(KEY_LABELS), min_size=1, max_size=5, unique=True))
    tgt = draw(st.permutations(KEY_LABELS))[: draw(st.integers(len(src), 6))]
    sets = {"1": src, "2": tgt}
    morphisms = {}
    for i, j in [("1", "1"), ("1", "2"), ("2", "2")]:
        n = len(sets[i])
        morphisms[f"{i}|{j}"] = [
            dict(draw(st.permutations(list(zip(sets[i], draw(st.permutations(sets[j]))[:n])))))
            for _ in range(draw(st.integers(1, 3)))
        ]
    doc = {"format_version": 1, "objects": ["1", "2"], "sets": sets,
           "pairs": [["1", "1"], ["1", "2"], ["2", "2"]], "morphisms": morphisms}
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


class TestReaderIndexedForm:
    """A mapping drawn from the carriers is read into its indexed form: the
    map reads as the map of its sorted graph, whatever the key order."""

    READS = [
        lambda f: f.graph,
        lambda f: f.mapping,
        lambda f: f.domain(),
        lambda f: f.image(),
        lambda f: f.graph_key(),
        lambda f: repr(f),
        lambda f: hash(f),
        lambda f: [f(x) for x in sorted(f.mapping)],
    ]

    @staticmethod
    def loaded(text):
        """Each map `load_spine` reads from text, beside the map
        `FiniteMap` builds from its mapping."""
        spine, _ = load_spine(text)
        raw = json.loads(text)["morphisms"]
        return [
            (f, FiniteMap(i, j, mapping))
            for (i, j), fams in spine.morphisms.items()
            for f, mapping in zip(fams, raw[f"{i}|{j}"])
        ]

    @given(shuffled_document())
    @settings(max_examples=150, deadline=None)
    def test_reads_as_the_sorted_graph(self, text):
        for read in self.READS:  # each read first, on a fresh map
            for f, want in self.loaded(text):
                assert "graph" not in vars(f)
                assert read(f) == read(want)
        for f, want in self.loaded(text):
            assert f == want and want == f and len({f, want}) == 1
            assert (f.source, f.target) == (want.source, want.target)

    @given(shuffled_document())
    @settings(max_examples=150, deadline=None)
    def test_encode_returns_the_stored_form(self, text):
        spine, _ = load_spine(text)
        for (i, j), fams in spine.morphisms.items():
            src, tgt = spine.sets[i].elements, spine.sets[j].elements
            for f in fams:
                t = encode(f, src, element_index(tgt))
                assert t is f._indexed[3]
                assert t == indexed_form([tgt.index(y) for y in map(dict(f.graph).get, src)])


class TestReaderFallback:
    """Mappings that fail the carrier test take the per-entry checks, with
    the messages and paths those give."""

    def load_with(self, mapping):
        doc = json.loads(serialize_spine(translation_spine(3, 2)))
        doc["morphisms"]["1|2"][1] = mapping
        return load_spine(json.dumps(doc))

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"0": "1", "1": 2, "2": "0"}, "expected a string, got int"),
            ({"0": "1", "1": ["2"], "2": "0"}, "expected a string, got list"),
            ({"0": "1", "1": {"2": "2"}, "2": "0"}, "expected a string, got dict"),
            ({"0": "1", "": "2", "2": "0"}, "labels may not be empty"),
            ({"0": "1", "1|": "2", "2": "0"}, "label '1|' contains the reserved character '|'"),
            ({"0": "1", "1": "", "2": "0"}, "labels may not be empty"),
            ({"0": "1", "1": "2", "2": "0", "9": "a|b"},
             "label 'a|b' contains the reserved character '|'"),
            ({"0": "1", "1": "1", "2": "0"}, "map '1'->'2' is not injective"),
        ],
        ids=["int-value", "list-value", "dict-value", "empty-key", "pipe-key",
             "empty-value", "extra-key-then-bad-value", "not-injective"],
    )
    def test_message_and_path(self, mapping, message):
        with pytest.raises(SchemaError) as exc:
            self.load_with(mapping)
        assert exc.value.path == 'morphisms."1|2"[1]'
        assert str(exc.value) == f'morphisms."1|2"[1]: {message}'

    @pytest.mark.parametrize(
        "mapping",
        [
            {"0": "1", "1": "2"},
            {"0": "1", "1": "2", "2": "0", "9": "9"},
            {"0": "1", "1": "2", "9": "0"},
            {"0": "1", "1": "2", "2": "zz"},
        ],
        ids=["missing-key", "extra-key", "foreign-key", "foreign-value"],
    )
    def test_labels_off_the_carriers_load_verbatim(self, mapping):
        spine, _ = self.load_with(mapping)
        assert spine.morphisms[("1", "2")][1].graph == tuple(sorted(mapping.items()))
        assert not validate_spine(spine).ok

    def test_repeated_image_over_256_points(self):
        doc = json.loads(serialize_spine(translation_spine(300, 2)))
        doc["morphisms"]["1|2"][1]["7"] = doc["morphisms"]["1|2"][1]["8"]
        with pytest.raises(SchemaError) as exc:
            load_spine(json.dumps(doc))
        assert str(exc.value) == "morphisms.\"1|2\"[1]: map '1'->'2' is not injective"
