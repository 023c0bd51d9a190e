"""Command-line front end.

Exit codes: 0 when all checks pass, 1 when a mathematical check failed (the
failure is reported on stdout), 2 for input or usage errors, an input too
large to handle and running out of memory (diagnosed on stderr, one line),
3 for an internal error (a `TheoremViolation`, one line on
stderr), 141 when the reader of stdout quit early (a broken pipe; nothing
more is written). All reports go to stdout and are deterministic: objects,
elements, and morphisms print in canonical order, so two runs on the same
input are byte-identical. `extend` prints `iterations: n`, where n - 1 is
the number of generators the closure adjoined (see
`extension._close_to_groupoid`). Each command validates its input once.
`extract` reads the group straight off a document that validation found to
be a groupoid on every pair (what `extend --out` writes), since it is its
own closure; any other document is extended first, as `extend` would.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from math import isqrt
from pathlib import Path

from .catalog import classify_group, cyclic_group, klein_group, symmetric_group
from .cosets import AmbientGroup, coset_test, partition_check
from .document import load_group, load_spine, serialize_group, serialize_spine
from .errors import (
    DocumentError,
    EmptySet,
    InvalidSpine,
    NotPrime,
    NotRegular,
    SearchExhausted,
    TheoremViolation,
    TooLarge,
    UnknownElement,
    UnknownObject,
    ValidationError,
)
from .extension import _CLOSURE_BUDGET, check_regularity, extend_to_groupoid
from .generators import (
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from .groups import GroupTable, _extract, group_on_fiber, relabel_group
from .model import compose_indexed, indexed_form, validate_spine

GROUP_SPEC_HELP = (
    "group spec: Zn (cyclic of order n, 1 <= n <= 512), Sn (symmetric, "
    "1 <= n <= 4), V4 (Klein four-group), or a path to a group-table JSON file"
)


def resolve_group_spec(spec: str) -> GroupTable:
    if spec == "V4":
        return klein_group()
    if len(spec) >= 2 and spec[0] in "ZS" and spec[1:].isdigit():
        n = int(spec[1:])
        if n < 1:
            what = "order" if spec[0] == "Z" else "degree"
            raise ValueError(f"bad group spec {spec!r}: {what} must be >= 1")
        if spec[0] == "Z":
            # the closure's budget of output maps bounds the n^2 products too
            if n * n > _CLOSURE_BUDGET:
                raise TooLarge(
                    f"group spec {spec!r} too large: Z{n} has {n * n} products, "
                    f"over the limit of {_CLOSURE_BUDGET} (n <= {isqrt(_CLOSURE_BUDGET)})"
                )
            return cyclic_group(n)
        if n > 4:
            raise ValueError(f"bad group spec {spec!r}: symmetric groups go up to S4")
        return symmetric_group(n)
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(
            f"group spec {spec!r} is not Zn, Sn, or V4, and no such file exists"
        )
    return load_group(path.read_bytes())


def print_cayley(title: str, table: GroupTable) -> None:
    """Print `title`, then the table as a row-major grid with a header row
    and column, identity first, one line at a time: the text of a large
    table is never held whole. Each row is the row form of the table
    (`GroupTable._rows`) with its columns put in that order, printed
    through the labels padded once."""
    e = table._index[table.identity]
    cols = indexed_form([e] + [b for b in range(len(table)) if b != e])
    width = max(len(x) for x in [*table.elements, "*"])
    padded = [x.rjust(width) for x in table.elements]
    print(title)
    print(" ".join(["*".rjust(width), *map(padded.__getitem__, cols)]))
    for a in cols:
        print(padded[a], " ".join(map(padded.__getitem__, compose_indexed(cols, table._rows[a]))))


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _emit_document(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    spine, _ = load_spine(_read(args.file))
    report = validate_spine(spine)
    print("\n".join(report.render_lines()))
    return 0 if report.ok else 1


def cmd_regularity(args) -> int:
    spine, _ = load_spine(_read(args.file))
    report = check_regularity(spine)
    print("\n".join(report.render_lines()))
    return 0 if report.regular else 1


def cmd_extend(args) -> int:
    spine, _ = load_spine(_read(args.file))
    result = extend_to_groupoid(spine)
    if args.out:
        _emit_document(serialize_spine(result.extended), args.out)
    print(f"conservative: {'true' if result.conservative else 'false'}")
    print(f"iterations: {result.iterations}")
    print(f"objects: {len(result.extended.objects)}")
    for pair, added in sorted(result.added_morphisms.items()):
        print(f"added on ({pair[0]},{pair[1]}): {len(added)} morphisms")
    return 0 if result.conservative else 1


def cmd_extract(args) -> int:
    spine, _ = load_spine(_read(args.file))
    action = _extract(spine, args.object)
    # a bad --identity must fail before anything is printed
    fiber = None if args.identity is None else group_on_fiber(action, args.identity)
    cls = classify_group(action.group)
    print(f"object: {args.object}")
    print(f"group order: {len(action.group)}")
    print(f"class: {cls.render()}")
    print_cayley("cayley table:", action.group)
    if fiber is not None:
        # the fiber group is a transport of the acting group: same class
        print(f"fiber group at {args.identity}: identity {fiber.identity}")
        print(f"fiber class: {cls.render()}")
        print_cayley("fiber cayley table:", fiber)
    return 0


def _parse_set(text: str) -> list[tuple[str, ...]]:
    return [(x,) for x in text.split(",")]


def cmd_coset(args) -> int:
    table = resolve_group_spec(args.group)
    amb = AmbientGroup(table, 1)
    report = coset_test(amb, _parse_set(args.set))
    names = (
        "left-translates-partition",
        "right-translates-partition",
        "left-coset",
        "right-coset",
        "xyz-closure",
    )
    for name, verdict in zip(names, report.verdicts()):
        print(f"{name}: {'true' if verdict else 'false'}")
    if report.subgroup is not None:
        ordered = sorted(report.subgroup, key=amb.tuple_key)
        print(f"subgroup: {','.join(x[0] for x in ordered)}")
        print(f"translator: {report.translator[0]}")
    return 0 if report.is_coset else 1


def cmd_partition(args) -> int:
    amb = AmbientGroup(resolve_group_spec(args.group), 1)
    family = [[amb.check_member(x) for x in _parse_set(text)] for text in args.sets]
    report = partition_check(family)
    print("\n".join(report.render_lines()))
    return 0 if report.equal_or_disjoint else 1


def cmd_gen(args) -> int:
    if args.kind == "group-action":
        if not args.group:
            raise ValueError("--kind group-action needs --group")
        table = resolve_group_spec(args.group)
        spine = gen_group_action_spine(table, args.objects)
        spec = {"kind": "group-action", "group": args.group, "objects": args.objects}
    elif args.kind == "affine-config":
        if args.prime is None:
            raise ValueError("--kind affine-config needs --prime")
        spine = gen_affine_config(args.prime)
        spec = {"kind": "affine-config", "prime": args.prime}
    elif args.kind == "latin-square":
        if args.order is None:
            raise ValueError("--kind latin-square needs --order")
        family = gen_latin_square_family(args.order, args.coset, args.seed)
        spine = latin_family_spine(family)
        spec = {
            "kind": "latin-square",
            "order": args.order,
            "want_coset": args.coset,
            "seed": args.seed,
        }
    else:  # perturbed
        if not args.base:
            raise ValueError("--kind perturbed needs --base")
        base, _ = load_spine(_read(args.base))
        spine = perturb_spine(base, args.seed)
        spec = {"kind": "perturbed", "seed": args.seed}
    _emit_document(serialize_spine(spine, meta={"generator": spec}), args.out)
    return 0


def cmd_relabel(args) -> int:
    table = resolve_group_spec(args.group_file)
    relabeled = relabel_group(table, args.d)
    if args.out:
        _emit_document(serialize_group(relabeled), args.out)
    cls = classify_group(relabeled)
    print(f"identity: {relabeled.identity}")
    print(f"class: {cls.render()}")
    print_cayley("cayley table:", relabeled)
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    every command gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="spinekit",
        description=(
            "Finite groupoid spines: validate, check regularity, extend to a "
            "groupoid, extract the automorphism group, and run coset geometry "
            "tests."
        ),
        epilog=GROUP_SPEC_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the spine axioms of a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("regularity", help="check sharp transitivity per pair")
    p.add_argument("file")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("extend", help="extend a regular spine to a groupoid")
    p.add_argument("file")
    p.add_argument("--out", help="write the extended spine document here")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("extract", help="extract the group at an object")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument(
        "--identity",
        help="also print the group transported onto the carrier with this identity",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("coset", help="run the five-way coset characterization")
    p.add_argument("group", help=GROUP_SPEC_HELP)
    p.add_argument("--set", required=True, help="comma-separated element labels")
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("partition", help="check a family is pairwise equal-or-disjoint")
    p.add_argument("group", help=GROUP_SPEC_HELP)
    p.add_argument(
        "--sets", required=True, nargs="+", help="each set as comma-separated labels"
    )
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("gen", help="generate a spine document")
    p.add_argument(
        "--kind",
        required=True,
        choices=["group-action", "affine-config", "latin-square", "perturbed"],
    )
    p.add_argument("--group", help=GROUP_SPEC_HELP)
    p.add_argument("--objects", type=int, default=3)
    p.add_argument("--prime", type=int)
    p.add_argument("--order", type=int)
    p.add_argument(
        "--coset",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="latin-square only: whether the family should be a coset family",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", help="perturbed only: spine document to mutate")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("relabel", help="relabel a group so a chosen element is the identity")
    p.add_argument("group_file", help=GROUP_SPEC_HELP)
    p.add_argument("--d", required=True, help="element to become the identity")
    p.add_argument("--out", help="write the relabeled group-table file here")
    p.set_defaults(func=cmd_relabel)

    return parser


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped reader quitting

# Exception classes -> (rendering or None for silence, stream, exit code),
# matched in order so that ValidationError is caught before its base class
# DocumentError, and BrokenPipeError before its base class OSError.
_ERRORS = (
    (
        (ValidationError, InvalidSpine, NotRegular),
        lambda exc: "\n".join(exc.report.render_lines()),
        "stdout",
        1,
    ),
    ((SearchExhausted,), "search exhausted: {}".format, "stdout", 1),
    ((TheoremViolation,), "internal error: {}".format, "stderr", 3),
    ((BrokenPipeError,), None, "stdout", EXIT_BROKEN_PIPE),
    ((MemoryError,), lambda exc: "error: out of memory", "stderr", 2),
    (
        (
            DocumentError,
            UnknownObject,
            UnknownElement,
            NotPrime,
            TooLarge,
            EmptySet,
            ValueError,
            OSError,
        ),
        "error: {}".format,
        "stderr",
        2,
    ),
)
_HANDLED = tuple(cls for classes, *_ in _ERRORS for cls in classes)


def run_command(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _HANDLED as exc:
        render, stream, code = next(
            row[1:] for row in _ERRORS if isinstance(exc, row[0])
        )
        if render is not None:
            print(render(exc), file=getattr(sys, stream))
        return code


def main() -> None:
    code = run_command(sys.argv[1:])
    if code == EXIT_BROKEN_PIPE:
        # The interpreter flushes stdout at exit; with the reader gone that
        # flush would fail again and print a traceback, so drop it instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
