"""Benchmark of the groupoid-growth CLI, end to end and layer by layer.

    python3 bench/run.py --workload subshift --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout.  Every pass of the workload runs in
a fresh single-threaded interpreter (``bench/passrun.py``) that drives the
package in-process through ``groupoid_growth.cli.main``; each job's output
is checked by its gate before it counts.  Passes repeat until ``--seconds``
would be exceeded (at least one).

``--trace 0`` reports the end-to-end metrics (medians over the passes):
``wall_ref_s``, ``peak_rss_mib`` and ``setup_s``.  Times are rescaled to a
reference CPU speed measured in the same process (see ``passrun.SpeedProbe``);
the raw wall and set-up times are printed on the ``# pass`` lines.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead; traced and untraced passes must give the
same result digests.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metric_names

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 8  # set-up-only interpreters per run, besides one per pass
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> tuple[float, dict]:
    """Run passrun.py once; return (monotonic spawn time, its JSON report)."""
    cmd = [sys.executable, str(ROOT / "bench" / "passrun.py"), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass did not finish within the {DEADLINE_S} s deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return spawned, json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"pass process printed no report: {proc.stdout[-500:]!r}") from e


def grade(jobs: list, report: dict) -> tuple[int, int, str]:
    """(attempted, failed, result digest) of one pass; failures are printed."""
    by_name = {j.name: j for j in jobs}
    failed = 0
    for res in report["jobs"]:
        reason = workloads.check(by_name[res["name"]], res["rc"], res["stdout"])
        if reason is not None:
            failed += 1
            print(f"# FAIL {res['name']}: {reason} {res['stderr'][-300:]!r}")
    if [r["name"] for r in report["jobs"]] != [j.name for j in jobs]:
        failed += 1
        print("# FAIL pass did not run the workload's jobs in order")
    blob = "\n".join(f"{r['name']}\t{r['rc']}\t{workloads.digest(r['stdout'])}" for r in report["jobs"])
    return len(jobs), failed, workloads.digest(blob)


def run_record(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "groupoid_growth" / "cli.py").is_file():
        raise BenchError(f"no groupoid_growth sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    jobs = workloads.generate(workload, seed)
    print("# record " + json.dumps(run_record(seed)))
    # Warm-up interpreter, discarded: compiles the .pyc files once.
    spawn(workload, seed, deadline, "--setup-only")

    attempted = failed = 0
    digests = set()
    passes: dict[bool, list[dict]] = {False: [], True: []}
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            spawned, rep = spawn(workload, seed, deadline, "--setup-only")
            setups.append((rep["ready"] - spawned) * rep["setup_scale"])

    spans = None
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    start = time.monotonic()
    kinds = [False, True] if trace else [False]
    while True:
        for traced in kinds:
            extra = ("--trace", "--spans", spans) if traced else ()
            spawned, rep = spawn(workload, seed, deadline, *extra)
            setup_raw = rep["ready"] - spawned
            setups.append(setup_raw * rep["setup_scale"])
            a, f, d = grade(jobs, rep)
            attempted, failed = attempted + a, failed + f
            digests.add(d)
            passes[traced].append(rep)
            print(
                f"# pass{' traced' if traced else ''} wall_s={rep['wall_s']:.4f}"
                + (f" wall_ref_s={rep['wall_ref_s']:.4f}" if "wall_ref_s" in rep else "")
                + f" setup_raw_s={setup_raw:.4f} setup_s={setups[-1]:.4f} peak_rss_mib={rep['peak_rss_mib']:.1f} "
                f"digest={d[:16]} jobs_s="
                + ",".join(f"{r['seconds']:.3f}" for r in rep["jobs"])
            )
        elapsed = time.monotonic() - start
        cycle = elapsed / len(passes[False])
        if elapsed + cycle > seconds:
            break
    if len(digests) != 1:
        failed += 1
        print("# FAIL passes gave different result digests" + (" (traced vs untraced)" if trace else ""))

    if trace:
        traced_reps = passes[True]
        names = layer_metric_names(workloads.job_names())
        metrics = {n: statistics.median(r["layers"][n] for r in traced_reps) for n in names}
        wall = statistics.median(p["wall_s"] for p in passes[False])
        overhead = statistics.median(p["wall_s"] for p in traced_reps) - wall
        metrics["trace.overhead_s"] = overhead
        for item in traced_reps[-1]["absent"]:
            print(f"# absent: {item} was not found, so its metrics read 0")
        print(f"# tracing overhead {overhead:.4f} s on an untraced wall_s of {wall:.4f} s; spans in {spans}")
        kind = "per_layer"
    else:
        metrics = {
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes[False]),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes[False]),
            "setup_s": statistics.median(setups),
        }
        kind = "end_to_end"
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    print(f"# fail_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
