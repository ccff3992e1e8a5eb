"""Seeded workloads of the groupoid-growth benchmark and the gate on each job.

A workload is a list of jobs; a job is one ``groupoid-growth`` command line
(argv for ``groupoid_growth.cli.main``) plus a gate that checks its standard
output.  The seed only chooses inputs: it is turned into argv and JSON
descriptors here and never reaches the program, except as ``verify-all``'s
own ``--seed``.  The same seed always gives the same argv.

Gates are independent of the program wherever a closed form exists
(Sturmian and Thue-Morse complexity, delta(r) = p(2r), the Sturmian growth
sandwich, module and semigroup growth, expansive windows, Grigorchuk germs and
level images).  Jobs run at the CLI defaults with no ``--budget``, so a
job that hits the budget-truncated factor enumeration fails the
closed-form gate instead of passing with a plausible wrong table.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial, wraps
from typing import Callable

WORKLOADS = ("subshift", "selfsimilar", "rank")

THUE_MORSE = {"kind": "substitution", "rules": {"0": "01", "1": "10"}, "seed": "0"}
GOLDEN = {"kind": "sturmian", "cf": [1], "cf_periodic": True}

# sha256 of the standard output of the fixed-input jobs, recorded at the
# commit that added the benchmark.  They pin today's output and certify no
# more than the program does: the thinned-growth level is chosen by a
# stabilization heuristic (two consecutive levels agree), not proved.
REFERENCE_DIGESTS = {
    "algebra-growth-thue-morse-q": "ac320944cbb3c51a38ab0cd2bd7150312ca690761dfd11503ad7a083cd59642e",
    "thinned-growth-f2": "9e628d8a19f9f67f7a73014c05422ea013889fa517420a7c2e1f42184781e96a",
    "thinned-growth-q": "70d78791baf52f4ede94094a817e28272dcd37ac826be5c7e7cc78e2d8f8d8df",
    "thinned-growth-f3": "e74c8846d507acf5c66052967a0e9c8a450df796a94ed84fa9b0db28acbecc78",
    "delta-germ-grigorchuk": "1e72ead264070aa5ffae9712aceb6ac781c8b2a786cdeb2483300be0e3d905ff",
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    gate: Callable[[str], str | None]  # stdout -> None if correct, else the reason


def generate(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload for one seed, in the order they run."""
    if workload not in _WORKLOAD_JOBS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(_WORKLOAD_JOBS)}")
    rng = random.Random(seed)
    # Draw every seeded input in a fixed order, so each workload sees the
    # same choices for the same seed.
    cf = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    germs = [(_grig_word(rng, 1, 8), _point(rng)) for _ in range(3)]
    element = [(rng.randint(1, 3), _grig_word(rng, 0, 4)) for _ in range(rng.randint(1, 3))]
    sturmian = {"kind": "sturmian", "cf": cf, "cf_periodic": True}
    return _WORKLOAD_JOBS[workload](seed, sturmian, germs, element)


def _subshift_jobs(seed, sturmian, germs, element) -> list[Job]:
    return [
        _complexity("complexity-thue-morse", THUE_MORSE, 200, thue_morse_p),
        _complexity("complexity-sturmian", sturmian, 200, sturmian_p),
        _delta("delta-thue-morse", THUE_MORSE, 20, thue_morse_p),
        _delta("delta-sturmian", sturmian, 20, sturmian_p),
        Job(
            "algebra-growth-golden-f2",
            ("algebra-growth", "--source", _js(GOLDEN), "--n-max", "32", "--field", "F2", "--oracle-upto", "4"),
            partial(gate_algebra_growth, n_max=32, p=sturmian_p, sturmian=True),
        ),
        Job("expansive-golden", ("expansive", "--source", _js(GOLDEN), "--n", "12"), partial(gate_expansive, n=12)),
        Job(
            "module-growth-golden",
            ("module-growth", "--source", _js(GOLDEN), "--n-max", "30"),
            partial(gate_module_growth, n_max=30),
        ),
        Job(
            "semigroup-growth-golden",
            ("semigroup-growth", "--source", _js(GOLDEN), "--n-max", "60"),
            partial(gate_semigroup_growth, n_max=60),
        ),
    ]


def _selfsimilar_jobs(seed, sturmian, germs, element) -> list[Job]:
    jobs = [
        Job(
            "verify-all-quick",
            ("--seed", str(seed), "verify-all", "--profile", "quick"),
            partial(gate_verify_all, seed=seed),
        ),
        _pinned("thinned-growth-f2", ("thinned-growth", "--group", "grigorchuk", "--n-max", "32", "--field", "F2")),
        _pinned(
            "delta-germ-grigorchuk",
            ("delta", "--model", "grigorchuk", "--units-policy", "periodic:pre=2,period=2", "--r", "3"),
        ),
        Job("nucleus-grigorchuk", ("nucleus", "--group", "grigorchuk"), gate_nucleus),
    ]
    for i, (word, (pre, period)) in enumerate(germs, 1):
        point = "".join(map(str, pre)) + "|" + "".join(map(str, period))
        jobs.append(
            Job(
                f"germ-{i}",
                ("germ", "--group", "grigorchuk", "--element", word, "--point", point),
                partial(gate_germ, word=word, pre=pre, period=period),
            )
        )
    text = "+".join(("" if c == 1 else f"{c}*") + (w or "1") for c, w in element)
    jobs.append(
        Job(
            "matrix-recursion",
            ("matrix-recursion", "--group", "grigorchuk", "--element", text, "--levels", "7"),
            partial(gate_matrix_recursion, words=[w for _, w in element], level=7),
        )
    )
    return jobs


def _rank_jobs(seed, sturmian, germs, element) -> list[Job]:
    return [
        Job(
            "algebra-growth-thue-morse-q",
            ("algebra-growth", "--source", _js(THUE_MORSE), "--n-max", "22", "--field", "Q"),
            partial(
                _all_gates,
                gates=(
                    partial(gate_algebra_growth, n_max=22, p=thue_morse_p, sturmian=False),
                    partial(gate_digest, name="algebra-growth-thue-morse-q"),
                ),
            ),
        ),
        Job(
            "algebra-growth-sturmian-q",
            ("algebra-growth", "--source", _js(sturmian), "--n-max", "32", "--field", "Q"),
            partial(gate_algebra_growth, n_max=32, p=sturmian_p, sturmian=True),
        ),
        _pinned("thinned-growth-q", ("thinned-growth", "--group", "grigorchuk", "--n-max", "16", "--field", "Q")),
        _pinned("thinned-growth-f3", ("thinned-growth", "--group", "grigorchuk", "--n-max", "12", "--field", "Fp:3")),
    ]


def _tiny_jobs(seed, sturmian, germs, element) -> list[Job]:
    """A pass of about a second over most layers, for the benchmark's own tests."""
    return [
        _complexity("tiny-complexity", sturmian, 12, sturmian_p),
        _delta("tiny-delta", THUE_MORSE, 2, thue_morse_p),
        Job(
            "tiny-algebra-growth",
            ("algebra-growth", "--source", _js(sturmian), "--n-max", "4", "--field", "F2"),
            partial(gate_algebra_growth, n_max=4, p=sturmian_p, sturmian=True),
        ),
        Job(
            "tiny-thinned-growth",
            ("thinned-growth", "--group", "grigorchuk", "--n-max", "4", "--field", "Q"),
            partial(gate_thinned_dims, dims=(5, 11, 19, 29)),
        ),
    ]


_WORKLOAD_JOBS = {
    "subshift": _subshift_jobs,
    "selfsimilar": _selfsimilar_jobs,
    "rank": _rank_jobs,
    "tiny": _tiny_jobs,
}


def job_names() -> list[str]:
    """Every job name of every workload; names do not depend on the seed."""
    return [job.name for w in WORKLOADS for job in generate(w, 0)]


def _js(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _grig_word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("abcd") for _ in range(rng.randint(lo, hi)))


def _point(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
    period = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
    return pre, period


def _complexity(name: str, source: dict, n_max: int, p) -> Job:
    argv = ("complexity", "--source", _js(source), "--n-max", str(n_max))
    return Job(name, argv, partial(gate_complexity, n_max=n_max, p=p))


def _delta(name: str, source: dict, r: int, p) -> Job:
    model = {"kind": "subshift", "source": source, "n_max": 2 * r}
    return Job(name, ("delta", "--model", _js(model), "--r", str(r)), partial(gate_delta, r=r, p=p))


def _pinned(name: str, argv: tuple[str, ...]) -> Job:
    return Job(name, argv, partial(gate_digest, name=name))


# -- closed forms ----------------------------------------------------------------


def sturmian_p(n: int) -> int:
    """Complexity of every Sturmian word."""
    return n + 1


def thue_morse_p(n: int) -> int:
    """Complexity of the Thue-Morse word (Brlek 1989; de Luca-Varricchio 1989).

    For n >= 3 write n = 2^r + q + 1 with 0 < q <= 2^r; then
    p(n) = 3*2^r + 4q if q <= 2^(r-1), else 4*2^r + 2q.
    """
    if n < 3:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= (1 << r) else 4 * (1 << r) + 2 * q


# Grigorchuk group: per generator, the letter map and the restriction at 0 and 1.
_GRIG = {"a": (True, ("", "")), "b": (False, ("a", "c")), "c": (False, ("a", "d")), "d": (False, ("", "b"))}
_KLEIN = {frozenset("bc"): "d", frozenset("bd"): "c", frozenset("cd"): "b"}


def _grig_reduce(word: str) -> str:
    """Free reduction in <a> * {1,b,c,d}: aa = bb = cc = dd = 1, bc = d, ..."""
    out: list[str] = []
    for x in word:
        if out and out[-1] == x:
            out.pop()
        elif out and x != "a" and out[-1] != "a":
            # The letter below a b/c/d is an a (or nothing), so no further cancellation.
            out.append(_KLEIN[frozenset((out.pop(), x))])
        else:
            out.append(x)
    return "".join(out)


def _grig_step(word: str, x: int) -> tuple[int, str]:
    """(g(x), g|_x) for a word g whose rightmost letter acts first."""
    rests = []
    for ch in reversed(word):
        flips, rest = _GRIG[ch]
        rests.append(rest[x])
        x ^= flips
    return x, _grig_reduce("".join(reversed(rests)))


def grig_germ_is_unit(word: str, pre: tuple[int, ...], period: tuple[int, ...]) -> bool:
    """Germ of a Grigorchuk word at pre.period^inf, by following restriction words.

    Restriction roughly halves the length of a reduced word, so the walk
    reaches a word of length <= 1; a, b, c, d are not the identity, so a
    repeated (word, phase) pair means a nontrivial germ.
    """
    w = _grig_reduce(word)
    seen = set()
    pos = 0
    while w:
        phase = None if pos < len(pre) else (pos - len(pre)) % len(period)
        x = pre[pos] if phase is None else period[phase]
        y, w_next = _grig_step(w, x)
        if y != x:
            return False
        if phase is not None:
            if (w, phase) in seen:
                return False
            seen.add((w, phase))
        w = w_next
        pos += 1
    return True


def grig_level_action(word: str, level: int) -> list[int]:
    """Images of the level-``level`` vertices (base-2 integers) under a word."""
    out = []
    for v in range(1 << level):
        letters = [(v >> (level - 1 - i)) & 1 for i in range(level)]
        w, image = _grig_reduce(word), 0
        for x in letters:
            y, w = _grig_step(w, x)
            image = 2 * image + y
        out.append(image)
    return out


# -- gates -----------------------------------------------------------------------


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#config=") or len(lines[0]) != 8 + 64:
        raise ValueError("missing #config digest row")
    if lines[1] != header:
        raise ValueError(f"header {lines[1]!r} != {header!r}")
    return [line.split(",") for line in lines[2:]]


def _int_table(stdout: str, header: str, first: int, last: int) -> list[list[int]]:
    rows = [[int(c) for c in row] for row in _csv_rows(stdout, header)]
    if [row[0] for row in rows] != list(range(first, last + 1)):
        raise ValueError(f"rows are not n = {first}..{last}")
    return rows


def _guard(check):
    """Turn a parse error inside a gate into a failure reason."""

    @wraps(check)
    def gate(stdout: str, **kw):
        try:
            return check(stdout, **kw)
        except (ValueError, IndexError, KeyError) as e:
            return f"unparsable output: {e}"

    return gate


@_guard
def gate_complexity(stdout: str, n_max: int, p) -> str | None:
    for n, pn in _int_table(stdout, "n,p_n", 1, n_max):
        if pn != p(n):
            return f"p({n}) = {pn}, closed form {p(n)}"
    return None


@_guard
def gate_delta(stdout: str, r: int, p) -> str | None:
    rows = _csv_rows(stdout, "r,delta,flag")
    if rows != [[str(r), str(p(2 * r)), "exact"]]:
        return f"row {rows} != delta({r}) = p({2 * r}) = {p(2 * r)}, exact"
    return None


@_guard
def gate_algebra_growth(stdout: str, n_max: int, p, sturmian: bool) -> str | None:
    rows = _csv_rows(stdout, "n,dim,lower_bound,upper_bound,bound_ok")
    if [int(row[0]) for row in rows] != list(range(1, n_max + 1)):
        return "rows are not n = 1..n_max"
    prev = 0
    for n_s, dim_s, lo_s, hi_s, ok in rows:
        n, dim = int(n_s), int(dim_s)
        lo, hi = (n // 2) * p(n // 2), (2 * n + 1) * p(2 * n)
        if (int(lo_s), int(hi_s), ok) != (lo, hi, "True"):
            return f"n={n}: bounds {lo_s},{hi_s},{ok} != {lo},{hi},True"
        if not lo <= dim <= hi or dim < prev:
            return f"n={n}: dim {dim} outside [{lo}, {hi}] or below dim V^{n - 1}"
        if sturmian and not (n + 1) * (n + 2) // 2 <= dim <= 2 * n * (2 * n + 1):
            return f"n={n}: dim {dim} outside the Sturmian sandwich"
        prev = dim
    return None


@_guard
def gate_expansive(stdout: str, n: int) -> str | None:
    for m, windows, atoms in _int_table(stdout, "n,windows,atoms", 1, n):
        # Sturmian: p(2m) = 2m + 1 windows; every atom key spells its window.
        if windows != 2 * m + 1 or atoms != windows:
            return f"n={m}: windows {windows}, atoms {atoms}, expected {2 * m + 1} each"
    return None


@_guard
def gate_module_growth(stdout: str, n_max: int) -> str | None:
    for n, dim, gamma in _int_table(stdout, "n,dim,gamma", 0, n_max):
        if (dim, gamma) != (2 * n + 1, 2 * n + 1):
            return f"n={n}: dim {dim}, gamma {gamma}, expected {2 * n + 1}"
    return None


@_guard
def gate_semigroup_growth(stdout: str, n_max: int) -> str | None:
    for n, dim in _int_table(stdout, "n,dim", 0, n_max):
        if dim != 1 + n * (n + 3) // 2:  # sum of p(k) = k + 1 for k <= n, p(0) = 1
            return f"n={n}: dim {dim}, expected {1 + n * (n + 3) // 2}"
    return None


@_guard
def gate_thinned_dims(stdout: str, dims: tuple[int, ...]) -> str | None:
    rows = _csv_rows(stdout, "n,dim,level,stabilized")
    got = tuple(int(row[1]) for row in rows)
    return None if got == dims else f"dims {got} != {dims}"


def gate_verify_all(stdout: str, seed: int) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != f"profile=quick seed={seed}":
        return "missing profile header"
    if len(lines) != 14 or not all(line.startswith("PASS ") for line in lines[1:]):
        return "not 13 PASS lines"
    return None


def gate_nucleus(stdout: str) -> str | None:
    if stdout != "nucleus size 5 (closure complete: True)\nstates: 1 a b c d\n":
        return "Grigorchuk nucleus is not {1, a, b, c, d}"
    return None


def gate_germ(stdout: str, word: str, pre, period) -> str | None:
    expected = "unit" if grig_germ_is_unit(word, pre, period) else "nontrivial"
    return None if stdout == expected + "\n" else f"germ of {word} is {expected}"


def gate_matrix_recursion(stdout: str, words: list[str], level: int) -> str | None:
    # Over Q with positive coefficients nothing cancels: the nonzero cells
    # are exactly the pairs (g(v), v) of the terms g.
    cells = {(img, v) for w in words for v, img in enumerate(grig_level_action(w, level))}
    size = 1 << level
    expected = f"level {level}: {len(cells)} nonzero entries in {size}x{size}\n"
    return None if stdout == expected else f"expected {expected.strip()!r}"


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def gate_digest(stdout: str, name: str) -> str | None:
    if digest(stdout) != REFERENCE_DIGESTS[name]:
        return f"output digest differs from the reference for {name}"
    return None


def _all_gates(stdout: str, gates) -> str | None:
    for gate in gates:
        reason = gate(stdout)
        if reason is not None:
            return reason
    return None


def check(job: Job, returncode, stdout: str) -> str | None:
    """None if the job passed, else why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    return job.gate(stdout)
