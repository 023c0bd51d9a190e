"""Golden CLI transcripts.

For a fixed command set, the exit code and the SHA-256 of stdout, stderr
and any document written with --out must match the recorded values byte
for byte. Input documents are generated into a temporary directory and
referred to by name; no command prints a path, so the digests do not
depend on where the directory lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from spinekit.cli import run_command

# A valid spine that is not regular: Mor(1,2) holds two maps, and with a
# single pair no composite is required.
IRREGULAR = """{
  "format_version": 1,
  "objects": ["1", "2"],
  "sets": {"1": ["a", "b", "c"], "2": ["a", "b", "c"]},
  "pairs": [["1", "2"]],
  "morphisms": {"1|2": [
    {"a": "a", "b": "b", "c": "c"},
    {"a": "b", "b": "c", "c": "a"}
  ]}
}
"""


def closed_groupoid(points: str, perms: list[str]) -> str:
    """The document of the groupoid on objects 1, 2, 3 whose every Mor(i, j)
    is the permutation group `perms` of the one-letter points; each
    permutation lists the images of the points in order. It validates
    whenever `perms` is a group."""
    objects = ["1", "2", "3"]
    family = [dict(zip(points, images)) for images in perms]
    return json.dumps({
        "format_version": 1,
        "objects": objects,
        "sets": {o: list(points) for o in objects},
        "pairs": [[i, j] for i in objects for j in objects],
        "morphisms": {f"{i}|{j}": family for i in objects for j in objects},
    })


# S3 acting naturally on 3 points: a closed groupoid that is not regular,
# since |G| = 6 > 3
S3_NATURAL = closed_groupoid("abc", ["abc", "acb", "bac", "bca", "cab", "cba"])

# V4 = <(p q), (r s)> on 4 points: |G| = |X|, but the action is intransitive
V4_INTRANSITIVE = closed_groupoid("pqrs", ["pqrs", "qprs", "pqsr", "qpsr"])

# A sharply transitive, non-coset family of order 9: its loops generate
# Sym(9), whose 362 880 maps pass the closure's limit of 65 536 on 2 objects
LATIN9_ROWS = ["761482035", "324708516", "418270653", "036145728", "672351804",
               "283516470", "845037162", "507624381", "150863247"]
LATIN9 = json.dumps({
    "format_version": 1,
    "objects": ["1", "2"],
    "sets": {"1": list("012345678"), "2": list("012345678")},
    "pairs": [["1", "2"]],
    "morphisms": {"1|2": [dict(zip("012345678", row)) for row in LATIN9_ROWS]},
})

# Input documents, each made by one `gen` invocation into the work directory.
INPUTS = {
    "z5.json": ["--kind", "group-action", "--group", "Z5", "--objects", "3"],
    "z3x3.json": ["--kind", "group-action", "--group", "Z3", "--objects", "3"],
    "s3.json": ["--kind", "group-action", "--group", "S3", "--objects", "3"],
    "latin5.json": [
        "--kind", "latin-square", "--order", "5", "--no-coset", "--seed", "1",
    ],
}

LATIN = [
    (f"gen-latin{order}-seed{seed}", [
        "gen", "--kind", "latin-square", "--order", str(order), "--no-coset",
        "--seed", str(seed),
    ])
    for order in (5, 6, 7)
    for seed in (0, 1, 2)
]

# name -> argv; "@name" is replaced by the path of a work-directory file.
CASES = dict(
    [
        ("validate-pass", ["validate", "@z5.json"]),
        ("validate-perturbed", ["validate", "@mutant.json"]),
        ("validate-irregular", ["validate", "@irregular.json"]),
        ("regularity-pass", ["regularity", "@z5.json"]),
        ("regularity-perturbed", ["regularity", "@mutant.json"]),
        ("regularity-irregular", ["regularity", "@irregular.json"]),
        ("extend-z5", ["extend", "@z5.json", "--out", "@out.json"]),
        ("extend-latin5", ["extend", "@latin5.json"]),
        ("extend-perturbed", ["extend", "@mutant.json"]),
        ("extend-irregular", ["extend", "@irregular.json"]),
        ("extract-s3-identity", [
            "extract", "@s3.json", "--object", "1", "--identity", "120",
        ]),
        ("extract-z5-object2", ["extract", "@z5.json", "--object", "2"]),
        ("extract-unknown-object", ["extract", "@z5.json", "--object", "9"]),
        ("extract-perturbed", ["extract", "@mutant.json", "--object", "1"]),
        ("extract-irregular", ["extract", "@irregular.json", "--object", "1"]),
        ("extract-latin5", ["extract", "@latin5.json", "--object", "1"]),
        ("extract-latin5-unknown-object", ["extract", "@latin5.json", "--object", "9"]),
        ("extract-z5ext-object1", ["extract", "@z5ext.json", "--object", "1"]),
        ("extract-z5ext-identity", [
            "extract", "@z5ext.json", "--object", "1", "--identity", "3",
        ]),
        ("extract-z5ext-unknown-object", ["extract", "@z5ext.json", "--object", "9"]),
        ("extract-s3nat", ["extract", "@s3nat.json", "--object", "1"]),
        ("extract-s3nat-unknown-object", ["extract", "@s3nat.json", "--object", "9"]),
        ("extend-s3nat", ["extend", "@s3nat.json"]),
        ("regularity-s3nat", ["regularity", "@s3nat.json"]),
        ("extract-v4", ["extract", "@v4.json", "--object", "2"]),
        ("extend-v4", ["extend", "@v4.json"]),
        ("regularity-v4", ["regularity", "@v4.json"]),
        ("coset-z6-subgroup", ["coset", "Z6", "--set", "0,2,4"]),
        ("coset-z6-translate", ["coset", "Z6", "--set", "1,4"]),
        ("coset-z6-false", ["coset", "Z6", "--set", "0,1,3"]),
        ("coset-s3-true", ["coset", "S3", "--set", "012,102"]),
        ("coset-s3-false", ["coset", "S3", "--set", "012,120,021"]),
        # an empty entry is the label "", which no group element has
        ("coset-z6-empty-entry", ["coset", "Z6", "--set", ",0"]),
        ("partition-z6-pass", ["partition", "Z6", "--sets", "0,3", "1,4", "2,5"]),
        ("partition-z6-fail", ["partition", "Z6", "--sets", "0,1,3", "1,2,4"]),
        ("partition-s3-pass", ["partition", "S3", "--sets", "012,120,201", "021,102,210"]),
        ("partition-s3-fail", ["partition", "S3", "--sets", "012,120", "120,201"]),
        ("gen-action-z4", ["gen", "--kind", "group-action", "--group", "Z4"]),
        ("gen-action-s3-2", [
            "gen", "--kind", "group-action", "--group", "S3", "--objects", "2",
        ]),
        ("gen-action-v4-1", [
            "gen", "--kind", "group-action", "--group", "V4", "--objects", "1",
        ]),
        ("gen-affine5", ["gen", "--kind", "affine-config", "--prime", "5"]),
        ("gen-affine-not-prime", ["gen", "--kind", "affine-config", "--prime", "6"]),
        ("gen-latin4-coset", ["gen", "--kind", "latin-square", "--order", "4"]),
        ("gen-latin5-coset", ["gen", "--kind", "latin-square", "--order", "5"]),
        ("gen-latin3-exhausted", [
            "gen", "--kind", "latin-square", "--order", "3", "--no-coset",
        ]),
        *LATIN,
        ("gen-perturbed", [
            "gen", "--kind", "perturbed", "--base", "@z5.json", "--seed", "4",
        ]),
        ("gen-perturbed-invalid-base", [
            "gen", "--kind", "perturbed", "--base", "@mutant.json",
        ]),
        ("gen-missing-group", ["gen", "--kind", "group-action"]),
        ("gen-action-s0", [
            "gen", "--kind", "group-action", "--group", "S0", "--objects", "2",
        ]),
        ("extend-latin9-over-budget", ["extend", "@latin9.json", "--out", "@out.json"]),
        ("extract-latin9-over-budget", ["extract", "@latin9.json", "--object", "1"]),
        ("relabel-s4", ["relabel", "S4", "--d", "1032", "--out", "@out.json"]),
        ("malformed-json", ["validate", "@malformed.json"]),
        ("malformed-json-extend", ["extend", "@malformed.json"]),
        ("bad-group-spec", ["coset", "Q9", "--set", "0"]),
        ("bad-symmetric-spec", ["relabel", "S9", "--d", "0"]),
        ("coset-z513-too-large", ["coset", "Z513", "--set", "0"]),
        ("gen-action-z1000-too-large", [
            "gen", "--kind", "group-action", "--group", "Z1000", "--objects", "8",
        ]),
        ("gen-action-z2-5000-too-large", [
            "gen", "--kind", "group-action", "--group", "Z2", "--objects", "5000",
        ]),
    ]
)

# name -> (exit code, sha256 of stdout, of stderr, of the --out document)
GOLDEN: dict[str, tuple[int, str, str, str | None]] = {
    "bad-group-spec": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "40ec286a4a2935a6e7e7827615151887c2eec1b47d3e8ea3efded67436f9218e",
        None,
    ),
    "bad-symmetric-spec": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "109658895edf3745c85cdce2b9f32161fe46985416e6ef70ec11eab81a903330",
        None,
    ),
    "coset-s3-false": (
        1,
        "04ba90ba0bc140ecdc2b9b6d1dc5bcc3a442c4d0745200bda8d3318a8a978014",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "coset-s3-true": (
        0,
        "d977d29b93963a480c0f8ea44a24e4799031807685f8d2453295d6e9c16c696d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "coset-z513-too-large": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "35fe2a074ade4ed92a1fee938a96e3e07152309bfef91a56018ab4ccffeff91e",
        None,
    ),
    "coset-z6-empty-entry": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2280d10de00ba6ba365872e5083812ba1d35460758ae327c15d854c7262d4c38",
        None,
    ),
    "coset-z6-false": (
        1,
        "04ba90ba0bc140ecdc2b9b6d1dc5bcc3a442c4d0745200bda8d3318a8a978014",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "coset-z6-subgroup": (
        0,
        "51a5f0113042272b6cd98278a42006ee02698aad991f6a4542c24b595353dc43",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "coset-z6-translate": (
        0,
        "b706c4174438824b9af969bf0493aa0e071197099b8d1ae11a4b498bcbf1ca1c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-irregular": (
        1,
        "e7b9f06b8e1de93dfc7260acef4a54c829ec28d1f4c93a249517bdaa6c78932b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-latin5": (
        1,
        "a983795df1b190417b255203a53ba24d7cca06609539eaae6463ebdeb6a9c5b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-latin9-over-budget": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8b702cbbf76c9f1adcd8a970e012907d97abf4748a09bbb9f133676a3bc7d6f8",
        None,
    ),
    "extend-perturbed": (
        1,
        "58a44338f74016baa54846d60d7f89600405128c1499901cc47425dbac48fc37",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-s3nat": (
        1,
        "c16127331fa0879f3cee53136f8dd9fdfa64e76c0253d6f1a5ecf7777b6fad83",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-v4": (
        1,
        "4b869a23b5ecc337bf959da410ff9b3eabf73eee8fd3fb291a4021b3c4f08b59",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extend-z5": (
        0,
        "bf763a8941dcae030d09175d3785138b85ec9868204a9d7de4c770af12f70138",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c00fd595aba825d01fc6fd968d74afe7232533a21e0397da16f336524fd31702",
    ),
    "extract-irregular": (
        1,
        "e7b9f06b8e1de93dfc7260acef4a54c829ec28d1f4c93a249517bdaa6c78932b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-latin5": (
        1,
        "410523157e504f8c2e3db9cc9c28c7171e42de28ea407e17c410644195819f3f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-latin5-unknown-object": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f9180e7e143f02534c357bbeaf490c886d21e0a367810f3d1b6c9e06f581cf13",
        None,
    ),
    "extract-latin9-over-budget": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8b702cbbf76c9f1adcd8a970e012907d97abf4748a09bbb9f133676a3bc7d6f8",
        None,
    ),
    "extract-perturbed": (
        1,
        "58a44338f74016baa54846d60d7f89600405128c1499901cc47425dbac48fc37",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-s3-identity": (
        0,
        "992506ff8d0e47cfe10674249d689192845d7bff1af23ccdf2e33402139f0360",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-s3nat": (
        1,
        "c16127331fa0879f3cee53136f8dd9fdfa64e76c0253d6f1a5ecf7777b6fad83",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-s3nat-unknown-object": (
        1,
        "c16127331fa0879f3cee53136f8dd9fdfa64e76c0253d6f1a5ecf7777b6fad83",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-unknown-object": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f9180e7e143f02534c357bbeaf490c886d21e0a367810f3d1b6c9e06f581cf13",
        None,
    ),
    "extract-v4": (
        1,
        "4b869a23b5ecc337bf959da410ff9b3eabf73eee8fd3fb291a4021b3c4f08b59",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-z5-object2": (
        0,
        "40d01107747f5366c6bcd77fa3a971f3b79b0a69c087410e5c26037cec04b408",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-z5ext-identity": (
        0,
        "df249791cf992dcbab21ee300c4bc749e17b6087837e52abfabc4076ec01434e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-z5ext-object1": (
        0,
        "9636fd8ba4d9c3f393560ffdc052d82654fd71b06234f23ec546205d62f1b18b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "extract-z5ext-unknown-object": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f9180e7e143f02534c357bbeaf490c886d21e0a367810f3d1b6c9e06f581cf13",
        None,
    ),
    "gen-action-s0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "07a59bc1d83f5240cffcbfa1b4cd36cc6b1ca1b4f9b429a26dcd4b3dee9cbecb",
        None,
    ),
    "gen-action-s3-2": (
        0,
        "2c9837dc8365d8474ba282843511c11a06e84bf424823fd3c0175742565aaa1d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-action-v4-1": (
        0,
        "fe5586e3c9a75858ac3ad53e248da7334bfc18f3c3205a693011d41b8219a107",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-action-z1000-too-large": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8de7e751f8f5fd64233e7c2017fa01e6e577fc41eaec9d45683ad46d8634bd4d",
        None,
    ),
    "gen-action-z2-5000-too-large": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "82a047cac342a4f03d979371a6ec27257a31b37158e73be9c450f12f4756e808",
        None,
    ),
    "gen-action-z4": (
        0,
        "53b84444d0117aa8876d7915910fcc199923c50a19af6b733beff224ca108772",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-affine-not-prime": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1f721441378d821ffd89002fcf2afe3d1adc40269f5bf863988a73de9a6f47f4",
        None,
    ),
    "gen-affine5": (
        0,
        "82b85a93374dd443f902739cc5dfb173f7030d0308bb319df9fc6c06b4284713",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin3-exhausted": (
        1,
        "4dd01974afb8496f8680b49d6af0f0e2291a17f5048cec2be9c8861b347b3c84",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin4-coset": (
        0,
        "c009926034a15519b6dd60f0f77d474b080ee72a5953eaa83d2bad9f012fa6c7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin5-coset": (
        0,
        "82c89fa50637840031d3f8b8982b7dbbb50b2fc972c7ecf516e55dd58b57ab81",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin5-seed0": (
        0,
        "cfa1a0d742f026f6a3bb391be43fe144f984d1a3d519b265979e9f91b9b9b74e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin5-seed1": (
        0,
        "e81a69cb432de205a13c7efce3e4783c67f67d3d4a85f68f8c1307561a6eee48",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin5-seed2": (
        0,
        "15fd0fe44cbe24f5187fd3e4d36ccc8be6589a9d1ebab0bc4df0b7bd6d9b4fcd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin6-seed0": (
        0,
        "e20ebb1816dfdd6b67f6ff8897b3eae614303376b892a2b75d73e889ad150e2d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin6-seed1": (
        0,
        "556652c880bf5b7162a6c65b33301f16ebce6e0d65bfce9fea5de0533cc5b7d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin6-seed2": (
        0,
        "12aea106839227e1ae4b621a59b4d6bd165d4f4124071d4ec30b0c8a74fe301f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin7-seed0": (
        0,
        "58197f3d548a0a939960710b8dd4940a1973fa9e4e896c838ca2f9592f3b71cb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin7-seed1": (
        0,
        "8dc61a3b44e0c7d770c61f45d4e8933471ec14e899dd2689c51ee0ca105e6b81",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-latin7-seed2": (
        0,
        "fb2bc34359cf42ed5eee50db43469d7ebc9096ccc48ff0498299aa66ac37badb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-missing-group": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "41f166a8aa1b2af22e4150690e4057caa41c2945199de13b282d23f5e8663a72",
        None,
    ),
    "gen-perturbed": (
        0,
        "8a432f933aaa30cdbfe028dc063cd3926c2feea7eaabc5f4688cfe383e34c421",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "gen-perturbed-invalid-base": (
        1,
        "58a44338f74016baa54846d60d7f89600405128c1499901cc47425dbac48fc37",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "malformed-json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1a8f41ac3ac7911668afe45fee8b7db2938ba1823ed41ae702295295cf5d4b55",
        None,
    ),
    "malformed-json-extend": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1a8f41ac3ac7911668afe45fee8b7db2938ba1823ed41ae702295295cf5d4b55",
        None,
    ),
    "partition-s3-fail": (
        1,
        "94bf69e94b304bc6944126881b14370796da19b0ed0f987c5b69ae6f6a9cccaa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "partition-s3-pass": (
        0,
        "90f5d4aabde78aea001b7d813192eda4b5bb294484aa639053d470d14617d527",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "partition-z6-fail": (
        1,
        "c738dedd375a5b58f5a4b1d4e0b17dac4cf758a7fa3d8b410e1e12ebe1de6c27",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "partition-z6-pass": (
        0,
        "90f5d4aabde78aea001b7d813192eda4b5bb294484aa639053d470d14617d527",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regularity-irregular": (
        1,
        "e7b9f06b8e1de93dfc7260acef4a54c829ec28d1f4c93a249517bdaa6c78932b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regularity-pass": (
        0,
        "aa9d5e480df3f95524d0519a8fc2cc2c11cbbbaf438c1fc0df266a0b8f9d13c6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regularity-perturbed": (
        1,
        "58a44338f74016baa54846d60d7f89600405128c1499901cc47425dbac48fc37",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regularity-s3nat": (
        1,
        "c16127331fa0879f3cee53136f8dd9fdfa64e76c0253d6f1a5ecf7777b6fad83",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regularity-v4": (
        1,
        "4b869a23b5ecc337bf959da410ff9b3eabf73eee8fd3fb291a4021b3c4f08b59",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "relabel-s4": (
        0,
        "3488c160947d943e01ce97e46fbda4a8a55eee34d1e6ada098cfe898e388141d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c0f51c4e742ae93f4d2706c60402669a990d6f47b110ad499a9038c4ff809920",
    ),
    "validate-irregular": (
        0,
        "d89a698168cf9e232af7e0229c5cde4dbddd119dd937eaff6848d89739907550",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "validate-pass": (
        0,
        "d89a698168cf9e232af7e0229c5cde4dbddd119dd937eaff6848d89739907550",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "validate-perturbed": (
        1,
        "58a44338f74016baa54846d60d7f89600405128c1499901cc47425dbac48fc37",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    for name, argv in INPUTS.items():
        assert _run(["gen", *argv, "--out", str(root / name)])[0] == 0
    assert _run(["extend", str(root / "z3x3.json"), "--out", str(root / "z3ext.json")])[0] == 0
    assert _run(["extend", str(root / "z5.json"), "--out", str(root / "z5ext.json")])[0] == 0
    base = ["gen", "--kind", "perturbed", "--base", str(root / "z3ext.json")]
    assert _run([*base, "--seed", "5", "--out", str(root / "mutant.json")])[0] == 0
    (root / "irregular.json").write_text(IRREGULAR, encoding="utf-8")
    (root / "s3nat.json").write_text(S3_NATURAL, encoding="utf-8")
    (root / "v4.json").write_text(V4_INTRANSITIVE, encoding="utf-8")
    (root / "latin9.json").write_text(LATIN9, encoding="utf-8")
    (root / "malformed.json").write_text('{"objects": [}', encoding="utf-8")
    return root


def _digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def transcript(workdir: Path, name: str) -> tuple[int, str, str, str | None]:
    out_file = workdir / "out.json"
    out_file.unlink(missing_ok=True)
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in CASES[name]]
    code, out, err = _run(argv)
    written = _digest(out_file.read_bytes()) if out_file.exists() else None
    return code, _digest(out), _digest(err), written


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(workdir, name):
    assert transcript(workdir, name) == GOLDEN[name]
