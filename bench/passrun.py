"""One pass of a benchmark workload, in a fresh interpreter.

Imports ``groupoid_growth`` from the checkout's ``src``, builds the workload's jobs
from the seed, runs each through ``groupoid_growth.cli.main`` with its output
captured, and prints one JSON line: the monotonic time at which the first
job could start, the pass wall time and peak RSS, and each job's exit code
and output.  ``--setup-only`` stops before the first job; ``--trace``
installs the per-layer wrappers first and adds their metrics.

Untraced passes also report their times at a reference CPU speed.  The
cores this runs on switch between a fast and a contended speed (up to 1.8x
slower) for seconds to minutes at a time.  So a :class:`SpeedProbe` times a
fixed pure-Python kernel every 50 ms of the pass, on the same core and at
the same time as the jobs, and the pass time is rescaled by the kernel's
mean time against ``REF_SAMPLE_S``.

    python3 bench/passrun.py --workload rank --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback


# Mean time of one SpeedProbe sample on an uncontended core of the machine the
# benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_SAMPLE_S = 0.00045
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Times a fixed kernel now and then, from a SIGALRM handler while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._table: dict[int, int] = {}

    def sample(self, *_signal_args) -> None:
        table = self._table
        t = time.perf_counter()
        for i in range(3000):
            k = (i * 7919) % 4099
            table[k] = table.get(k, 0) + i
        self.samples.append(time.perf_counter() - t)

    def burst(self, n: int = 16) -> None:
        for _ in range(n):
            self.sample()

    def scale(self) -> float:
        """Factor from this process's seconds to reference-speed seconds."""
        return REF_SAMPLE_S / statistics.fmean(self.samples)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from groupoid_growth import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"groupoid_growth imported from {cli.__file__}, not from {src}")
    import workloads

    jobs = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    setup_probe = SpeedProbe()
    setup_probe.burst()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_probe.scale()}))
        return 0

    results = []
    # The traced pass runs without the probe, so that no span contains its samples.
    probe = SpeedProbe()
    t0 = time.perf_counter()
    with contextlib.nullcontext() if tracer else probe:
        run_jobs(cli, jobs, tracer, results)
    wall = time.perf_counter() - t0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "ready": ready,
        "setup_scale": setup_probe.scale(),
        "wall_s": wall,
        "peak_rss_mib": rss_mib,
        "jobs": results,
    }
    if tracer:
        report["layers"] = tracer.metrics(workloads.job_names())
        report["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        # Probe samples taken during the pass are not the program's time.
        work = wall - sum(probe.samples)
        probe.burst()
        report["wall_ref_s"] = work * probe.scale()
    print(json.dumps(report))
    return 0


def run_jobs(cli, jobs, tracer, results: list) -> None:
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        span = tracer.job(job.name) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(job.argv))
            except SystemExit as e:  # argparse rejected the argv
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a job that crashes is a failed job, not a failed pass
                rc = "exception"
                traceback.print_exc()
        results.append(
            {
                "name": job.name,
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:],
                "seconds": time.perf_counter() - start,
            }
        )


if __name__ == "__main__":
    sys.exit(main())
