"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, with all checks on, and
requires each to print the metrics BENCHMARK.json names with no failed
job. Then shows that each workload's checks reject a wrong output. Exits
non-zero on any failure; takes about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def short_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(w["name"] for w in spec["workloads"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", "all",
                "--seed", "7", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        expect(proc.returncode == 0, f"run.py --workload all --trace {trace} exits 0")
        if proc.returncode != 0:
            continue
        results = json.loads(proc.stdout.splitlines()[-1])
        expect(sorted(results) == names, f"trace {trace}: one result per workload")
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, result in results.items():
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{name} trace {trace}: {result['attempted']} jobs, none failed",
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: metric names and units")


def rejects_wrong_output(workloads, workdir: Path) -> None:
    rng = random.Random(3)
    w = workloads.WORKLOADS["action-pipeline"]
    job = w.setup(rng, workdir)[4]
    outputs = list(w.run(job))
    expect(not w.check(job, outputs), "action-pipeline: right output passes")
    code, text, err = outputs[3]
    wrong = outputs[:3] + [(code, text.replace(f"class: {job.name}", "class: C24"), err)]
    expect(bool(w.check(job, wrong)), "action-pipeline: a wrong class is caught")
    full = job.docs[4][1]
    doc = json.loads(full.read_text(encoding="utf-8"))
    doc["morphisms"]["2|3"].pop()
    full.write_text(json.dumps(doc), encoding="utf-8")
    expect(bool(w.check(job, outputs)), "action-pipeline: a missing map is caught")

    w = workloads.WORKLOADS["latin-closure"]
    job = w.setup(rng, workdir)[0]
    [(conservative, text)] = w.run(job)
    expect(not w.check(job, [(conservative, text)]), "latin-closure: right output passes")
    expect(bool(w.check(job, [(True, text)])), "latin-closure: conservative is caught")
    doc = json.loads(text)
    doc["morphisms"]["1|1"].pop()
    expect(bool(w.check(job, [(False, json.dumps(doc))])), "latin-closure: a missing map is caught")

    w = workloads.WORKLOADS["group-geometry"]
    coset, table = w.setup(rng, workdir)[:2]
    outputs = list(w.run(coset))
    expect(not w.check(coset, outputs), "group-geometry: right coset output passes")
    report = outputs[0]
    smaller = dataclasses.replace(report, subgroup=frozenset(list(report.subgroup)[:-1]))
    expect(bool(w.check(coset, [smaller] + outputs[1:])), "group-geometry: a wrong subgroup is caught")
    expect(bool(w.check(coset, outputs[:2] + outputs[3:])), "group-geometry: a missing fiber report is caught")
    outputs = list(w.run(table))
    expect(not w.check(table, outputs), "group-geometry: right table output passes")
    expect(bool(w.check(table, outputs[:3] + [False] + outputs[4:])), "group-geometry: non-isomorphism is caught")


def main() -> int:
    short_runs()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        rejects_wrong_output(workloads, Path(tmp))
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
