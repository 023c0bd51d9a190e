"""Spans around calls into spinekit, recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper at every
spinekit module reference that holds it, so calls the CLI and the other
layers make through their own imports are recorded too. Spans stay in
memory as [name, start, end, parent index, job id, size] and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

# The public entry points of each layer. Per-element helpers (compose,
# invert, FiniteMap methods) are left unwrapped: a span per composition
# would cost more than the work it measures.
TRACED = {
    "cli": ("run_command",),
    "document": ("load_spine", "parse_document", "serialize_spine"),
    "model": ("validate_spine",),
    "extension": ("check_regularity", "symmetric_closure", "extend_to_groupoid"),
    "generators": (
        "gen_group_action_spine",
        "gen_latin_square_family",
        "latin_family_spine",
    ),
    "groups": ("extract_group", "group_on_fiber", "relabel_group"),
    "catalog": ("catalog", "classify_group", "is_isomorphic"),
    "cosets": (
        "coset_test",
        "partition_check",
        "fiber_coset_structure",
        "family_local_linearity",
    ),
}

# Work counted at a span: bytes parsed, morphisms produced.
SIZES = {
    "document.load_spine": lambda args, result: len(args[0]),
    "extension.extend_to_groupoid": lambda args, result: sum(
        len(maps) for maps in result.extended.morphisms.values()
    ),
}

NAME, START, END, PARENT, JOB, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, size_of = self.spans, self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if size_of is not None:
                span[SIZE] = size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"spinekit.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "spinekit" and not modname.startswith("spinekit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["name", "start", "end", "parent", "job", "size"])
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def per_job(self) -> dict[int, dict[str, list[float]]]:
        """For each job id: span name -> [self seconds, calls, size].

        A span's self time is its duration minus that of its wrapped
        children.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        jobs: dict[int, dict[str, list[float]]] = {}
        for idx, span in enumerate(self.spans):
            acc = jobs.setdefault(span[JOB], {}).setdefault(span[NAME], [0.0, 0, 0])
            acc[0] += span[END] - span[START] - child[idx]
            acc[1] += 1
            acc[2] += span[SIZE]
        return jobs


def _median_over(jobs, value) -> float:
    """Median of value(spans, scale) over the jobs where it is defined; 0
    if none. `jobs` holds (spans by name, scale) per job."""
    values = [v for v in (value(*job) for job in jobs) if v is not None]
    return statistics.median(values) if values else 0.0


def _sum(names, field):
    def value(job, scale):
        hits = [job[n] for n in names if n in job]
        if not hits:
            return None
        total = sum(h[field] for h in hits)
        return total * 1e3 * scale if field == _MS else total

    return value


def _us_per_morphism(job, scale):
    span = job.get("extension.extend_to_groupoid")
    return span[0] * 1e6 * scale / span[2] if span and span[2] else None


_MS, _CALLS, _SIZE = 0, 1, 2

# name -> (unit, spans summed, field); values are medians per traced job.
JOB_METRICS = {
    "cli.self_ms": ("ms", ["cli.run_command"], _MS),
    "document.parse_ms": ("ms", ["document.parse_document", "document.load_spine"], _MS),
    "document.serialize_ms": ("ms", ["document.serialize_spine"], _MS),
    "document.bytes_parsed": ("bytes", ["document.load_spine"], _SIZE),
    "model.validate_ms": ("ms", ["model.validate_spine"], _MS),
    "model.validate_calls": ("count", ["model.validate_spine"], _CALLS),
    "extension.extend_ms": ("ms", ["extension.extend_to_groupoid"], _MS),
    "extension.morphisms_out": ("count", ["extension.extend_to_groupoid"], _SIZE),
    "groups.extract_ms": ("ms", ["groups.extract_group"], _MS),
    "groups.fiber_ms": ("ms", ["groups.group_on_fiber"], _MS),
    "groups.relabel_ms": ("ms", ["groups.relabel_group"], _MS),
    "catalog.classify_ms": ("ms", ["catalog.classify_group"], _MS),
    "catalog.isomorphism_ms": ("ms", ["catalog.is_isomorphic"], _MS),
    "catalog.isomorphism_calls": ("count", ["catalog.is_isomorphic"], _CALLS),
    "cosets.coset_test_ms": ("ms", ["cosets.coset_test"], _MS),
    "cosets.partition_ms": ("ms", ["cosets.partition_check"], _MS),
    "cosets.fiber_ms": ("ms", ["cosets.fiber_coset_structure"], _MS),
    "cosets.linearity_ms": ("ms", ["cosets.family_local_linearity"], _MS),
}

# name -> spans summed; values are medians over the set-up repetitions.
SETUP_METRICS = {
    "generators.gen_ms": [f"generators.{n}" for n in TRACED["generators"]],
    "catalog.build_ms": ["catalog.catalog"],
}


def layer_metrics(tracer: Tracer, scales: dict[int, float], setups: list[int]) -> dict:
    """Per-layer medians. `scales` maps each traced job id to the factor
    that brings its times to the nominal core speed; `setups` lists the
    set-up repetitions' ids, which are in `scales` too."""
    per_job = tracer.per_job()
    traced = [(per_job.get(j, {}), f) for j, f in scales.items() if j not in setups]
    out = {}
    for name, (unit, names, field) in JOB_METRICS.items():
        out[name] = {"value": _median_over(traced, _sum(names, field)), "unit": unit}
    out["extension.us_per_morphism"] = {
        "value": _median_over(traced, _us_per_morphism),
        "unit": "us",
    }
    reps = [(per_job.get(s, {}), scales[s]) for s in setups]
    for name, names in SETUP_METRICS.items():
        out[name] = {"value": _median_over(reps, _sum(names, _MS)), "unit": "ms"}
    return out
