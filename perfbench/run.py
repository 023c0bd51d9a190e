"""Benchmark of spinekit: three closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout; spinekit is imported from its `src`.
The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). Times are scaled to a nominal core speed, see
`reference`; the unscaled wall-clock figures go to stderr with a human
summary. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("action-pipeline", "latin-closure", "group-geometry")
# String hashing is pinned so that set and dict layouts, and with them the
# timings, do not change from one process to the next.
HASH_SEED = "0"
SETUP_REPEATS = 11
# On a shared virtual machine core speed can swing by 2x within seconds
# (seen on the 2-vCPU 2.1 GHz machine the bounds in BENCHMARK.json come
# from), so every timing is scaled by a reference computation timed just
# before and after it. REFERENCE_S sets the scale: the reference's median
# time, in seconds, on that machine.
REFERENCE_S = 0.015
_REFERENCE_GENS = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))


def reference() -> float:
    """Time a fixed computation (closing S_7 from two generators): a sample
    of how fast this core runs Python right now."""
    start = time.perf_counter()
    oracles.closure(_REFERENCE_GENS, oracles.then, tuple(range(7)))
    return time.perf_counter() - start


def _import_spinekit():
    src = ROOT / "src"
    if not (src / "spinekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no spinekit sources under {src}")
    sys.path.insert(0, str(src))
    import spinekit

    if Path(spinekit.__file__).resolve().parent != src / "spinekit":
        raise SystemExit(f"error: imported spinekit from {spinekit.__file__}")


def _speed_factor(before: float, after: float) -> float:
    """What brings a time to the nominal core speed: REFERENCE_S over the
    mean of the reference timings just before and just after it."""
    return 2 * REFERENCE_S / (before + after)


def _setup(workload, seed: int, workdir: Path, tracer):
    """Set up SETUP_REPEATS times; return the last inputs, the median wall
    and scaled times, and each repetition's speed factor."""
    times, factors = [], []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.job = -1 - rep
        gc.collect()
        before = reference()
        start = time.perf_counter()
        jobs = workload.setup(random.Random(seed), workdir)
        times.append(time.perf_counter() - start)
        factors.append(_speed_factor(before, reference()))
    scaled = statistics.median(t * f for t, f in zip(times, factors))
    return jobs, statistics.median(times), scaled, factors


def _run_job(workload, job) -> tuple[list, float, float]:
    """Run one job step by step, with the reference timed before the first
    step and after each. Returns the step outputs and the job's wall and
    scaled seconds."""
    before = reference()
    outputs, wall, scaled = [], 0.0, 0.0
    steps = workload.run(job)
    while True:
        start = time.perf_counter()
        try:
            outputs.append(next(steps))
        except StopIteration:
            return outputs, wall, scaled
        seconds = time.perf_counter() - start
        after = reference()
        wall += seconds
        scaled += seconds * _speed_factor(before, after)
        before = after


def _measure(workload, jobs, seconds: float, tracer) -> dict:
    """Run whole rounds over `jobs` while the next round fits in `seconds`.

    With a tracer, the first round warms up and the rest alternate traced
    and untraced, so the run also gives the tracing overhead. Garbage is
    collected before each job and the collector is off inside it.
    """
    # per job: (wall seconds, scaled seconds), keyed by whether the round
    # was traced (None for the warm-up round)
    samples: dict = {False: [], True: [], None: []}
    failed = wrong = 0
    job_ids: list[int] = []
    rounds, start = 0, time.perf_counter()
    if tracer is not None:
        tracer.job = 0
    while True:
        if tracer is None:
            traced = False
        else:
            traced = None if rounds == 0 else rounds % 2 == 1
        if traced:
            tracer.install()
        for job in jobs:
            gc.collect()
            try:
                outputs, wall, scaled = _run_job(workload, job)
                problems = workload.check(job, outputs)
                wrong += bool(problems)
            except Exception as exc:  # a job that raises counts as failed
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                samples[traced].append((wall, scaled))
                if traced:
                    job_ids.append(tracer.job)
            if problems:
                failed += 1
                print("job failed: " + "; ".join(problems[:3]), file=sys.stderr)
            if traced:
                tracer.job += 1
        if traced:
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        enough = rounds >= (3 if tracer is not None else 1)
        if enough and elapsed * (rounds + 1) / rounds > seconds:
            break
    return {
        "samples": samples,
        "attempted": rounds * len(jobs),
        "failed": failed,
        "wrong": wrong,
        "job_ids": job_ids,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    gc.disable()
    try:
        if tracer is not None:
            tracer.install()
        jobs, setup_wall, setup_scaled, setup_factors = _setup(workload, seed, workdir, tracer)
        if tracer is not None:
            tracer.uninstall()
        gc.freeze()
        run = _measure(workload, jobs, seconds, tracer)
    finally:
        gc.enable()
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [w for w, _ in run["samples"][False]]
    plain = [s for _, s in run["samples"][False]]
    if not plain:
        raise SystemExit(f"error: every {name} job failed")
    if trace:
        scales = {-1 - rep: f for rep, f in enumerate(setup_factors)}
        for job_id, (w, s) in zip(run["job_ids"], run["samples"][True]):
            scales[job_id] = s / w
        metrics = spans.layer_metrics(tracer, scales, [-1 - r for r in range(SETUP_REPEATS)])
        traced_p50 = statistics.median(s for _, s in run["samples"][True])
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_p50 / statistics.median(plain) - 1.0),
            "unit": "%",
        }
        tracer.write(
            OUT / f"spans-{name}-seed{seed}.json",
            {"workload": name, "seed": seed, "hash_seed": HASH_SEED},
        )
    else:
        metrics = {
            "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(plain), "unit": "ms"},
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    summary = [
        f"{name}: seed {seed}, PYTHONHASHSEED {HASH_SEED}, "
        f"{run['attempted']} jobs, {run['failed']} failed",
        f"  unscaled wall clock: {len(wall) / sum(wall):.4g} jobs/s, "
        f"p50 {1e3 * statistics.median(wall):.1f} ms, setup {setup_wall:.3f} s",
    ]
    if not trace and len(plain) >= 100:
        p90 = statistics.quantiles(plain, n=10)[-1]
        summary.append(f"  op_p90_ms {1e3 * p90:.1f} ms (over {len(plain)} jobs)")
    summary += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    print("\n".join(summary), file=sys.stderr)
    return {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, in turn; one result line each."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        if not results[name]["correct"] or results[name]["failed"]:
            status = 1
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    _import_spinekit()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
