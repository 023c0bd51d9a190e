"""The three workloads: inputs made from a seed, the timed job, its checks.

Each workload has `setup(rng, workdir)`, which builds the catalog and the
inputs of one round; `run(job)`, a generator of the job's calls into
spinekit in which each `yield` ends one timed step; and
`check(job, outputs)`, which takes the yielded values and returns the
problems found (empty when the output is right). Checks run outside the
timed region and compare against `oracles`, never against saved output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

catalog = importlib.import_module("spinekit.catalog")
cli = importlib.import_module("spinekit.cli")
cosets = importlib.import_module("spinekit.cosets")
document = importlib.import_module("spinekit.document")
extension = importlib.import_module("spinekit.extension")
generators = importlib.import_module("spinekit.generators")
groups = importlib.import_module("spinekit.groups")

# Captured before any tracing wrapper can replace the module attribute.
clear_catalog = catalog.catalog.cache_clear


def _build_catalog() -> dict:
    clear_catalog()
    return dict(catalog.catalog())


def _rows(doc: dict, pair: str) -> list[tuple[str, ...]]:
    """The maps of one pair of a spine document as image tuples in the
    source carrier's order."""
    src = doc["sets"][pair.split("|")[0]]
    return [tuple(m[x] for x in src) for m in doc["morphisms"][pair]]


# ---------------------------------------------------------------- action-pipeline

PIPELINE_GROUPS = ("C24", "C2×C12", "C2×C2×C6", "D12", "S4", "Dic6")
PIPELINE_OBJECTS = (4, 5)


@dataclass
class PipelineJob:
    name: str
    elements: tuple[str, ...]
    product: dict
    point: str
    docs: dict[int, tuple[Path, Path]]


def pipeline_setup(rng: random.Random, workdir: Path) -> list[PipelineJob]:
    table = _build_catalog()
    jobs = []
    for name in PIPELINE_GROUPS:
        group = table[name]
        docs = {}
        for k in PIPELINE_OBJECTS:
            spine = generators.gen_group_action_spine(group, k)
            stem = f"{PIPELINE_GROUPS.index(name)}-{k}"
            doc, full = workdir / f"{stem}.json", workdir / f"{stem}-full.json"
            doc.write_text(document.serialize_spine(spine), encoding="utf-8")
            docs[k] = (doc, full)
        point = rng.choice(group.elements)
        jobs.append(PipelineJob(name, group.elements, dict(group.product), point, docs))
    return jobs


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def pipeline_run(job: PipelineJob):
    """`spinekit extend` then `spinekit extract` at 4 and at 5 objects."""
    for k, (doc, full) in job.docs.items():
        yield _cli(["extend", str(doc), "--out", str(full)])
        yield _cli(["extract", str(full), "--object", str(k), "--identity", job.point])


def pipeline_check(job: PipelineJob, outputs: list) -> list[str]:
    problems = []
    translations = {
        tuple(job.product[(h, x)] for x in job.elements) for h in job.elements
    }
    pairs = zip(outputs[0::2], outputs[1::2])
    for k, ((code1, out1, err1), (code2, out2, err2)) in zip(job.docs, pairs):
        where = f"{job.name} x {k}"
        if code1 != 0 or "conservative: true" not in out1.splitlines():
            problems.append(f"{where}: extend exited {code1}: {err1.strip()}")
            continue
        if code2 != 0:
            problems.append(f"{where}: extract exited {code2}: {err2.strip()}")
            continue
        doc = json.loads(job.docs[k][1].read_text(encoding="utf-8"))
        if len(doc["pairs"]) != k * k:
            problems.append(f"{where}: {len(doc['pairs'])} pairs, expected {k * k}")
        for i, j in doc["pairs"]:
            if set(_rows(doc, f"{i}|{j}")) != translations:
                problems.append(f"{where}: Mor({i},{j}) is not the left translations")
        lines = out2.splitlines()
        expected = (
            "group order: 24",
            f"class: {job.name}",
            f"fiber class: {job.name}",
            f"fiber group at {job.point}: identity {job.point}",
        )
        problems += [f"{where}: missing {line!r}" for line in expected if line not in lines]
    return problems


# ---------------------------------------------------------------- latin-closure

LATIN_ORDER = 5
LATIN_FAMILIES = 48


@dataclass
class LatinJob:
    text: str
    expected: set | None = field(default=None, repr=False)


def latin_setup(rng: random.Random, workdir: Path) -> list[LatinJob]:
    _build_catalog()
    jobs = []
    for _ in range(LATIN_FAMILIES):
        family = generators.gen_latin_square_family(
            LATIN_ORDER, want_coset=False, seed=rng.randrange(1 << 30)
        )
        spine = generators.latin_family_spine(family)
        jobs.append(LatinJob(document.serialize_spine(spine)))
    return jobs


def latin_run(job: LatinJob):
    result = extension.extend_to_groupoid(document.parse_document(job.text))
    yield result.conservative, document.serialize_spine(result.extended)


def _as_indices(doc: dict, rows) -> list[oracles.Perm]:
    index = {x: n for n, x in enumerate(doc["sets"]["1"])}
    return [tuple(index[y] for y in row) for row in rows]


def latin_check(job: LatinJob, outputs: list) -> list[str]:
    [(conservative, text)] = outputs
    problems = []
    if conservative:
        problems.append("a non-coset family extended conservatively")
    if job.expected is None:
        doc = json.loads(job.text)
        job.expected = oracles.latin_loop_group(_as_indices(doc, _rows(doc, "1|2")))
    out = json.loads(text)
    got = _as_indices(out, _rows(out, "1|1"))
    if len(got) != len(set(got)) or set(got) != job.expected:
        problems.append(
            f"Mor(1,1) has {len(got)} maps; the group generated by the "
            f"family's loops has {len(job.expected)}"
        )
    return problems


# ---------------------------------------------------------------- group-geometry

# (group kind, m, power, subgroup order): cosets a.H and non-cosets of |H|.
AMBIENTS = (("Z", 6, 4, 12), ("Z", 4, 5, 16), ("S", 3, 4, 6))
TRANSLATES = 16
PROJECTION = (0, 1)

# (catalog name or None above order 24, builder); extended at two objects.
TABLES = (
    ("S4", lambda: catalog.symmetric_group(4)),
    ("Dic6", lambda: catalog.dicyclic_group(6)),
    (None, lambda: catalog.dihedral_group(16)),
    (None, lambda: catalog.abelian_group(4, 12)),
    (None, lambda: catalog.dicyclic_group(16)),
)


@dataclass
class CosetJob:
    amb: object
    xs: list
    translates: list
    other: list
    is_coset: bool
    subgroup: frozenset | None
    fiber_subgroup: frozenset | None
    fibers: int


@dataclass
class TableJob:
    name: str | None
    source: object
    ext: object
    point: str
    relabel_index: int


def _coset_job(pw: oracles.Power, amb, xs: set, subgroup: set | None, rng) -> CosetJob:
    label = lambda s: [pw.label(x) for x in s]
    translates = [
        label({pw.mul(t, x) for x in xs}) for t in rng.sample(pw.elements, TRANSLATES)
    ]
    u = rng.choice(pw.elements)
    other = label({pw.mul(u, x) for x in xs})
    fiber_subgroup = None
    if subgroup is not None:
        kernel = {h for h in subgroup if all(h[c] == pw.identity[c] for c in PROJECTION)}
        fiber_subgroup = frozenset(label(kernel))
        subgroup = frozenset(label(subgroup))
    fibers = len({tuple(x[c] for c in PROJECTION) for x in xs})
    return CosetJob(
        amb, label(xs), translates, other, subgroup is not None,
        subgroup, fiber_subgroup, fibers,
    )


def geometry_setup(rng: random.Random, workdir: Path) -> list:
    _build_catalog()
    coset_jobs = []
    for kind, m, power, size in AMBIENTS:
        pw = oracles.Power(kind, m, power)
        base = catalog.cyclic_group(m) if kind == "Z" else catalog.symmetric_group(m)
        amb = cosets.AmbientGroup(base, power)
        h = pw.random_subgroup(size, rng)
        a = rng.choice(pw.elements)
        coset = {pw.mul(a, x) for x in h}
        coset_jobs.append(_coset_job(pw, amb, coset, h, rng))
        coset_jobs.append(_coset_job(pw, amb, pw.random_non_coset(size, rng), None, rng))
    table_jobs = []
    for name, build in TABLES:
        source = build()
        spine = generators.gen_group_action_spine(source, 2)
        ext = extension.extend_to_groupoid(spine)
        table_jobs.append(
            TableJob(name, source, ext, rng.choice(source.elements), rng.randrange(len(source)))
        )
    interleaved = []
    for n, job in enumerate(coset_jobs):
        interleaved.append(job)
        if n < len(table_jobs):
            interleaved.append(table_jobs[n])
    return interleaved


def geometry_run(job):
    if isinstance(job, TableJob):
        action = groups.extract_group(job.ext, "1")
        yield len(action.group)
        fiber = groups.group_on_fiber(action, job.point)
        yield fiber.identity
        d = action.group.elements[job.relabel_index]
        relabeled = groups.relabel_group(action.group, d)
        yield d, relabeled.identity
        yield catalog.is_isomorphic(relabeled, job.source)
        if job.name:
            yield catalog.classify_group(fiber).name
        return
    yield cosets.coset_test(job.amb, job.xs)
    yield cosets.partition_check(job.translates)
    if job.is_coset:
        yield cosets.fiber_coset_structure(job.amb, job.xs, PROJECTION)
    yield cosets.family_local_linearity(job.amb, [job.xs, job.other])


def geometry_check(job, outputs: list) -> list[str]:
    if isinstance(job, TableJob):
        order, fiber_id, (d, relabeled_id), iso, *cls = outputs
        where = job.name or f"order {len(job.source)}"
        problems = []
        if order != len(job.source):
            problems.append(f"{where}: extracted order {order}")
        if fiber_id != job.point:
            problems.append(f"{where}: fiber identity {fiber_id}, asked {job.point}")
        if relabeled_id != d:
            problems.append(f"{where}: relabeled identity {relabeled_id}, asked {d}")
        if not iso:
            problems.append(f"{where}: relabeled group not isomorphic to the source")
        if job.name and cls != [job.name]:
            problems.append(f"{where}: classified as {cls}")
        return problems
    report, part, *fib, lin = outputs
    problems = []
    where = f"{len(job.xs)}-set in G^{job.amb.power}"
    if set(report.verdicts()) != {job.is_coset} or report.subgroup != job.subgroup:
        problems.append(f"{where}: coset verdicts {report.verdicts()} or subgroup wrong")
    if job.is_coset and report.translator not in job.xs:
        problems.append(f"{where}: translator outside the set")
    translates = [frozenset(s) for s in job.translates]
    if part.equal_or_disjoint != oracles.equal_or_disjoint(translates):
        problems.append(f"{where}: partition verdict {part.equal_or_disjoint}")
    expected = (job.fiber_subgroup, job.fibers) if job.is_coset else None
    if expected != ((fib[0].subgroup, len(fib[0].fibers)) if fib else None):
        problems.append(f"{where}: fiber subgroup or fiber count wrong")
    if (
        lin.member_cosets != (job.is_coset, job.is_coset)
        or lin.all_cosets != job.is_coset
        or lin.subgroups != (job.subgroup, job.subgroup)
        or not lin.shared_subgroup_translates
    ):
        problems.append(f"{where}: local linearity report wrong")
    return problems


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "action-pipeline": Workload(pipeline_setup, pipeline_run, pipeline_check),
    "latin-closure": Workload(latin_setup, latin_run, latin_check),
    "group-geometry": Workload(geometry_setup, geometry_run, geometry_check),
}
