"""Spine documents: the JSON interchange form of a spine, plus group-table
files.

A spine document is a single UTF-8 JSON object with fields format_version,
objects, sets, pairs, morphisms, and optional meta. Pair keys join the two
object labels with "|", so labels may not contain that character.
Serialization is canonical: parse followed by serialize reproduces a
serialized document byte for byte.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, Optional

from .errors import (
    DocumentSyntaxError,
    SchemaError,
    ValidationError,
)
from .groups import GroupTable
from .model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    element_index,
    indexed_form,
    indexed_map,
    validate_spine,
)

FORMAT_VERSION = 1

_SPINE_KEYS = {"format_version", "objects", "sets", "pairs", "morphisms", "meta"}


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _check_label(label: Any, path: str) -> str:
    if isinstance(label, str) and label != "" and "|" not in label:
        return label  # the common case builds no message
    if not isinstance(label, str):
        raise SchemaError(f"expected a string, got {type(label).__name__}", path)
    _require(label != "", "labels may not be empty", path)
    raise SchemaError(f"label {label!r} contains the reserved character '|'", path)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """Object hook for json.loads, which alone keeps the last of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise DocumentSyntaxError(f"repeated key {key!r} in a JSON object")
    return obj


def _load_object(text: str | bytes, keys: set[str], required: tuple[str, ...]) -> dict:
    """The front end shared by spine documents and group-table files: decode
    UTF-8, parse JSON, and check the top-level keys and the format version.

    `keys` are the allowed top-level keys; `required` lists those besides
    format_version that must be present.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentSyntaxError(f"not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except (RecursionError, ValueError) as exc:  # too deep, or an over-long integer
        raise DocumentSyntaxError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "document must be a JSON object", "$")
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown top-level key {key!r}", "$")
    for key in ("format_version", *required):
        _require(key in doc, f"missing required key {key!r}", "$")
    _require(
        doc["format_version"] == FORMAT_VERSION,
        f"unsupported format_version {doc['format_version']!r}",
        "format_version",
    )
    return doc


class _Quoted(dict):
    """Labels to their quoted JSON text, escaped by the C escaper that
    json.dumps uses with ensure_ascii=False. A label not stored yet (an
    object or a pair key) is escaped on lookup."""

    def __missing__(self, label: str) -> str:
        return encode_basestring(label)


def _layout(brackets: str, items: list[str], depth: int) -> str:
    """A JSON array or object of rendered items (object items as
    '"key": value') `depth` levels deep, laid out as json.dumps lays it
    out with indent=2."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{brackets[1]}"


def serialize_spine(spine: GroupoidSpine, meta: Optional[dict] = None) -> str:
    """Canonical document text: objects in spine order, pairs in canonical
    order, morphism lists verbatim, mapping keys in carrier order.

    The text is exactly json.dumps(doc, indent=2, ensure_ascii=False) of
    that document, written directly, because with an indent json.dumps
    runs its pure-Python encoder over every key and bracket. Each carrier
    label is quoted once, each family is one template with its keys filled
    in, a map held as its indexed form over the two carriers fills it from
    that form, and meta still goes through json.dumps. Any other map is
    written from its graph as it is, its X_i keys in carrier order and
    then the others in sorted order, so that `load_spine` reads back even
    a map whose keys are not exactly X_i.
    """
    quote = _Quoted(
        (x, encode_basestring(x)) for s in spine.sets.values() for x in s.elements
    ).__getitem__
    pairs = spine.sorted_pairs()

    quoted = {o: list(map(quote, s.elements)) for o, s in spine.sets.items()}

    def family(i: str, j: str) -> str:
        elements, targets = spine.sets[i].elements, spine.sets[j].elements
        domain = frozenset(elements)
        # one template per family, its keys filled in: one `%` per map
        keys = [quote(x).replace("%", "%%") + ": %s" for x in elements]
        template, image = _layout("{}", keys, 3), quoted[j].__getitem__

        def mapping(f: FiniteMap) -> str:
            # its graph as it is: the keys in X_i in carrier order, then the
            # others sorted, the layout the template gives a map total on X_i
            graph = f._dict
            at = [x for x in elements if x in graph] + sorted(graph.keys() - domain)
            return _layout("{}", [f"{quote(x)}: {quote(graph[x])}" for x in at], 3)

        maps = [
            template % tuple(map(image, held[2]))
            if (held := f._indexed) is not None and held[0] == elements and held[1] == targets
            else mapping(f)
            for f in spine.morphisms[(i, j)]
        ]
        return _layout("[]", maps, 2)

    # a dict display, as the document was built before: on colliding keys
    # (labels holding "|") the later family wins at the earlier position
    morphisms = {f"{i}|{j}": family(i, j) for i, j in pairs}
    sets = [
        f"{quote(o)}: " + _layout("[]", list(map(quote, spine.sets[o].elements)), 2)
        for o in spine.objects
    ]
    pair_lists = [_layout("[]", [quote(i), quote(j)], 2) for i, j in pairs]
    fields = [
        f'"format_version": {FORMAT_VERSION}',
        '"objects": ' + _layout("[]", list(map(quote, spine.objects)), 1),
        '"sets": ' + _layout("{}", sets, 1),
        '"pairs": ' + _layout("[]", pair_lists, 1),
        '"morphisms": ' + _layout("{}", [f"{quote(k)}: {v}" for k, v in morphisms.items()], 1),
    ]
    if meta is not None:
        text = json.dumps(meta, indent=2, ensure_ascii=False)
        fields.append('"meta": ' + text.replace("\n", "\n  "))
    return _layout("{}", fields, 0) + "\n"


def load_spine(text: str | bytes) -> tuple[GroupoidSpine, Optional[dict]]:
    """Structural parse only: returns the spine and its meta block.

    Raises DocumentSyntaxError for malformed JSON and SchemaError (with a
    path like morphisms."1|3"[2]) for shape problems.

    Each mapping is read in one pass. A mapping whose keys are exactly the
    source carrier and whose images are distinct points of the target
    carrier (every map that `serialize_spine` writes of a valid spine) is
    read into its indexed form (`indexed_form`, `indexed_map`), so its
    graph is built only if something reads it. Any other mapping has each
    label checked and becomes a `FiniteMap` of its sorted graph, which
    raises its own error when it is not injective. The test for repeated
    images is the one place outside `model` that tells the two kinds of
    form apart: a `bytes` form takes one `bytes.maketrans`, a tuple form a
    set.
    """
    doc = _load_object(text, _SPINE_KEYS, ("objects", "sets", "pairs", "morphisms"))

    objects = doc["objects"]
    _require(isinstance(objects, list) and objects, "objects must be a non-empty list", "objects")
    objects = [_check_label(o, f"objects[{n}]") for n, o in enumerate(objects)]
    _require(len(set(objects)) == len(objects), "duplicate object labels", "objects")

    raw_sets = doc["sets"]
    _require(isinstance(raw_sets, dict), "sets must be an object", "sets")
    sets: dict[str, FiniteSet] = {}
    for o, elems in raw_sets.items():
        path = f'sets."{o}"'
        _require(o in objects, f"set for unknown object {o!r}", path)
        _require(isinstance(elems, list) and elems, "must be a non-empty list", path)
        labels = [_check_label(e, f"{path}[{n}]") for n, e in enumerate(elems)]
        try:
            sets[o] = FiniteSet(o, labels)
        except ValueError as exc:
            raise SchemaError(str(exc), path) from None
    for o in objects:
        _require(o in sets, f"object {o!r} has no carrier set", "sets")

    raw_pairs = doc["pairs"]
    _require(isinstance(raw_pairs, list), "pairs must be a list", "pairs")
    pairs: list[tuple[str, str]] = []
    for n, pair in enumerate(raw_pairs):
        path = f"pairs[{n}]"
        _require(
            isinstance(pair, list) and len(pair) == 2,
            "each pair must be a two-element list",
            path,
        )
        i, j = (_check_label(x, path) for x in pair)
        _require(i in objects and j in objects, "pair names an unknown object", path)
        _require((i, j) not in pairs, f"duplicate pair ({i},{j})", path)
        pairs.append((i, j))

    raw_mor = doc["morphisms"]
    _require(isinstance(raw_mor, dict), "morphisms must be an object", "morphisms")
    positions = {o: element_index(s.elements) for o, s in sets.items()}
    # itemgetter of one label returns the item, not a 1-tuple
    pickers = {
        o: itemgetter(*s.elements) if len(s) > 1 else (lambda m, x=s.elements[0]: (m[x],))
        for o, s in sets.items()
    }
    morphisms: dict[tuple[str, str], list[FiniteMap]] = {}
    for key, fams in raw_mor.items():
        path = f'morphisms."{key}"'
        parts = key.split("|")
        _require(len(parts) == 2, 'keys must look like "i|j"', path)
        i, j = parts
        _require((i, j) in pairs, f"({i},{j}) is not a listed pair", path)
        _require(isinstance(fams, list), "must be a list of mappings", path)
        src, tgt, index, pick = sets[i].elements, sets[j].elements, positions[j], pickers[i]
        size, at = len(src), index.__getitem__
        small = size <= 256 and len(tgt) <= 256  # forms are bytes (`indexed_form`)
        points = bytes(range(size)) if small else None
        maps = []
        for n, mapping in enumerate(fams):
            # a mapping drawn from the carriers is read in one pass in
            # source-carrier order, whatever its key order, and its labels
            # were checked with the sets; any other takes the per-entry
            # checks and their messages
            try:
                images = map(at, pick(mapping))
                if small:  # distinct images iff the inverse table that
                    # `maketrans` builds takes the form back to the identity
                    t = bytes(images)
                    distinct = t.translate(bytes.maketrans(t, points)) == points
                else:
                    t = indexed_form(list(images))
                    distinct = len(set(t)) == size
                if len(mapping) == size and distinct:
                    maps.append(indexed_map(i, j, src, tgt, t))
                    continue
            except (KeyError, TypeError):  # a label off the carriers, or not a mapping
                pass
            mpath = f"{path}[{n}]"
            _require(isinstance(mapping, dict), "each morphism must be an object", mpath)
            for x, y in mapping.items():
                _check_label(x, mpath)
                _check_label(y, mpath)
            try:  # every label is a str, by the checks
                maps.append(FiniteMap(i, j, mapping))
            except ValueError as exc:
                raise SchemaError(str(exc), mpath) from None
        morphisms[(i, j)] = maps
    for pair in pairs:
        _require(
            pair in morphisms,
            f"pair ({pair[0]},{pair[1]}) has no morphism list",
            "morphisms",
        )

    meta = doc.get("meta")
    try:
        spine = GroupoidSpine(objects, sets, pairs, morphisms)
    except ValueError as exc:
        raise SchemaError(str(exc), "$") from None
    return spine, meta


def parse_document(text: str | bytes) -> GroupoidSpine:
    """Parse and validate a spine document.

    Validation failures raise ValidationError carrying the full report.
    """
    spine, _ = load_spine(text)
    report = validate_spine(spine)
    if not report.ok:
        raise ValidationError(report)
    return spine


_GROUP_KEYS = {"format_version", "elements", "identity", "product", "inverse", "meta"}


def serialize_group(table: GroupTable, meta: Optional[dict] = None) -> str:
    elems = table.elements
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "elements": list(elems),
        "identity": table.identity,
        "product": {
            f"{a}|{b}": elems[c]
            for a, row in zip(elems, table._rows)
            for b, c in zip(elems, row)
        },
        "inverse": {a: elems[b] for a, b in zip(elems, table._inv)},
    }
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_group(text: str | bytes) -> GroupTable:
    """Parse a group-table file. The inverse block is optional; when given it
    must list exactly each element's inverse under the product."""
    doc = _load_object(text, _GROUP_KEYS, ("elements", "identity", "product"))
    elements = doc["elements"]
    _require(
        isinstance(elements, list) and elements,
        "elements must be a non-empty list",
        "elements",
    )
    for n, e in enumerate(elements):
        _check_label(e, f"elements[{n}]")
    _check_label(doc["identity"], "identity")
    raw = doc["product"]
    _require(isinstance(raw, dict), "product must be an object", "product")
    product: dict[tuple[str, str], str] = {}
    for key, value in raw.items():
        path = f'product."{key}"'
        parts = key.split("|")
        _require(len(parts) == 2, 'keys must look like "a|b"', path)
        _check_label(value, path)
        product[(parts[0], parts[1])] = value
    try:
        table = GroupTable(elements, doc["identity"], product)
    except ValueError as exc:
        raise SchemaError(str(exc), "$") from None
    inverse = doc.get("inverse")
    if inverse is not None:
        _require(isinstance(inverse, dict), "inverse must be an object", "inverse")
        for a in [*table.elements, *inverse]:
            _require(
                a in table._index and inverse.get(a) == table.inv(a),
                f"inverse table is wrong at {a!r}",
                "$",
            )
    return table
