"""Tests of the benchmark itself (not of groupoid_growth).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import layer_metric_names

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_declared():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert per_layer == layer_metric_names(workloads.job_names()) + ["trace.overhead_s"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    argv = [[j.argv for j in workloads.generate(workload, s)] for s in (0, 1, 0)]
    assert argv[0] == argv[2]
    assert [j.name for j in workloads.generate(workload, 1)] == [j.name for j in workloads.generate(workload, 0)]


def test_seed_changes_the_seeded_inputs():
    argvs = {tuple(j.argv for j in workloads.generate("selfsimilar", s)) for s in range(5)}
    assert len(argvs) == 5


def test_thue_morse_closed_form_matches_enumeration():
    w = [0]
    while len(w) < 4096:
        w += [1 - x for x in w]
    for n in range(0, 41):
        assert len({tuple(w[i : i + n]) for i in range(len(w) - n + 1)}) == workloads.thue_morse_p(n)


def _run(job):
    import contextlib
    import io

    from groupoid_growth import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(job.argv))
    return rc, out.getvalue()


def test_corrupted_output_counts_as_failure():
    job = workloads._complexity("complexity-sturmian", workloads.GOLDEN, 12, workloads.sturmian_p)
    rc, out = _run(job)
    good = {"name": job.name, "rc": rc, "stdout": out, "stderr": "", "seconds": 0.0}
    assert run.grade([job], {"jobs": [good]})[:2] == (1, 0)
    corrupted = dict(good, stdout=out.replace("\n12,13\n", "\n12,14\n"))
    assert corrupted["stdout"] != out
    assert run.grade([job], {"jobs": [corrupted]})[:2] == (1, 1)
    crashed = dict(good, rc=3)
    assert run.grade([job], {"jobs": [crashed]})[:2] == (1, 1)


def test_germ_and_level_gates_agree_with_the_program():
    jobs = [j for j in workloads.generate("selfsimilar", 3) if j.name.startswith(("germ-", "matrix-"))]
    for job in jobs:
        rc, out = _run(job)
        assert workloads.check(job, rc, out) is None, job.argv


def _pass(*extra):
    cmd = [sys.executable, str(ROOT / "bench" / "passrun.py"), "--workload", "tiny", "--seed", "2", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tiny_traced_pass_matches_untraced():
    plain, traced = _pass(), _pass("--trace")
    assert [j["stdout"] for j in plain["jobs"]] == [j["stdout"] for j in traced["jobs"]]
    assert run.grade(workloads.generate("tiny", 2), plain)[:2] == (4, 0)
    layers = traced["layers"]
    assert not traced["absent"]
    assert set(layers) == set(layer_metric_names(workloads.job_names()))
    assert layers["subshift.build_language_calls"] > 0 and layers["fields.bitbasis.insert_calls"] > 0
    assert layers["selfsimilar.canonical_key_calls"] > 0 and layers["matrix_recursion.levels_tried"] > 0
    assert layers["cli.self_s"] > 0 and "layers" not in plain
    assert plain["wall_ref_s"] > 0 and "wall_ref_s" not in traced
