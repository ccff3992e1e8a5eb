"""End-to-end verification suite: thirteen numbered checks over the whole
toolkit, runnable at three scales (tiny for smoke, quick for development,
full for the complete claims).

Checks 02 and 07-12 test the self-similar presets.  One ``run_checks`` call
builds each preset group once and hands it to every check that uses it: the
Grigorchuk group to checks 02 and 08-12, the adding machine to checks 07 and
12 (and 02 at full).  The groups are dropped before check 13, whose two tiny
runs each build their own, so it compares two cold runs; no group outlives
the call."""

from __future__ import annotations

import functools
import hashlib
import random
from fractions import Fraction
from typing import NamedTuple

from . import matrix_recursion as mr
from . import shift_algebra as sa
from .errors import IdentityError
from .fields import GF2, QQ
from .groupoid import GermGroupoidModel, LabeledBall, canonical_code
from .selfsimilar import group_from_spec, parse_point
from .subshift import build_language
from .words import SturmianSource, ToeplitzSource, golden_sturmian, thue_morse


class Scale(NamedTuple):
    sturmian_n: int  # criterion 1
    delta_r: int  # criterion 2: radius of the germ balls coded
    delta_units: int  # criterion 2: preperiod and period cap of their units
    delta_groups: tuple[str, ...]  # criterion 2: presets whose germ balls are coded
    growth_n: int  # criteria 3-4
    oracle_n: int  # criterion 5
    module_n: int  # criteria 6 and 12: gamma = 2r+1 for r <= module_n
    hom_samples: int  # criterion 10
    thinned_n: int  # criterion 11, its slope fit on [ceil(thinned_n/3), thinned_n]
    contraction_cap: int  # criterion 12


SCALES = {
    "full": Scale(200, 5, 2, ("grigorchuk", "adding_machine"), 12, 5, 10, 100, 48, 16),
    "quick": Scale(50, 3, 1, ("grigorchuk",), 6, 4, 6, 20, 24, 12),
    "tiny": Scale(12, 1, 1, ("grigorchuk",), 3, 3, 3, 5, 10, 8),
}


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _lang(source, n_max: int, budget: int):
    return build_language(source, n_max=n_max, prefix_budget=budget)


def check_01_sturmian_complexity(s: Scale) -> CheckResult:
    n = s.sturmian_n
    budget = 10 * n * (n + 1)
    bad = []
    for cf in ([1], [2]):
        lang = _lang(SturmianSource(cf, cf_periodic=True), n, budget)
        for m in range(1, n + 1):
            if lang.complexity(m) != m + 1:
                bad.append((cf[0], m, lang.complexity(m)))
    ok = not bad
    detail = f"p(n)=n+1 for n<=({n}) on cf=[1,1,...] and [2,2,...]" if ok else f"violations {bad[:3]}"
    return CheckResult("01-sturmian-complexity", ok, detail)


def check_02_delta_consistency(s: Scale, group) -> CheckResult:
    r, cap = s.delta_r, s.delta_units
    rng = random.Random(2)
    bad = []
    for name in s.delta_groups:
        model = GermGroupoidModel(group(name))
        first = {}  # code -> the first ball with it
        for unit in model.periodic_units(cap, cap):
            ball = model.ball(unit, r)
            code = canonical_code(ball)
            m = ball.num_vertices
            perm = [0] + rng.sample(range(1, m), m - 1)
            moved = sorted((perm[a], perm[b], l) for a, b, l in ball.edges)
            if canonical_code(LabeledBall(m, moved, ball.labels)) != code:
                bad.append((name, unit, "code changed by a relabeling"))
            first.setdefault(code, ball)
            if any((c == code) != _isomorphic(rep, ball) for c, rep in first.items()):
                bad.append((name, unit, "codes disagree with isomorphism"))
    what = f"germ balls of {'/'.join(s.delta_groups)} at r={r}, preperiod and period <= {cap}"
    detail = f"{what}: codes relabel-invariant, equal iff isomorphic" if not bad else f"violations {bad[:3]}"
    return CheckResult("02-delta-consistency", not bad, detail)


def _isomorphic(a: LabeledBall, b: LabeledBall) -> bool:
    """Whether a root- and label-preserving isomorphism carries ``a`` onto
    ``b``.  Each label is a partial injection, so root to root forces the
    image of every neighbour: one paired walk finds the map or a clash."""
    m = a.num_vertices
    if (b.num_vertices, len(b.edges), b.labels) != (m, len(a.edges), a.labels):
        return False
    na, nb = _neighbours(a), _neighbours(b)
    image, walk = [0] + [-1] * (m - 1), [0]
    for v in walk:
        for x, y in zip(na[v], nb[image[v]]):
            if (x < 0) != (y < 0) or x >= 0 and image[x] not in (-1, y):
                return False
            if x >= 0 and image[x] < 0:
                image[x] = y
                walk.append(x)
    return len(walk) == len(set(image)) == m


def _neighbours(ball: LabeledBall) -> list[list[int]]:
    """Each vertex's out- and in-neighbour by each label, -1 for none."""
    nbrs = [[-1] * (2 * len(ball.labels)) for _ in range(ball.num_vertices)]
    for a, b, l in ball.edges:
        nbrs[a][2 * l] = b
        nbrs[b][2 * l + 1] = a
    return nbrs


def _growth_suite():
    return (
        ("golden", golden_sturmian()),
        ("thue-morse", thue_morse()),
        ("paperfolding-0?1?", ToeplitzSource((0, -1, 1, -1), alphabet_size=2)),
    )


def check_03_main_inequality(s: Scale) -> CheckResult:
    n_max = s.growth_n
    bad = []
    for name, src in _growth_suite():
        lang = _lang(src, 2 * n_max + 1, max(8192, 40 * n_max * n_max))
        for field in (QQ, GF2):
            prev = 0
            for n, dim in sa.growth_dims(lang, n_max, field):
                if dim > (2 * n + 1) * lang.complexity(2 * n) or dim < prev:
                    bad.append((name, field.name, n, dim))
                prev = dim
    ok = not bad
    detail = (
        f"dim V^n <= (2n+1)p(2n), n<={n_max}, 3 subshifts x {{Q,F2}}" if ok else f"violations {bad[:3]}"
    )
    return CheckResult("03-main-inequality", ok, detail)


def check_04_sturmian_sandwich(s: Scale) -> CheckResult:
    n_max = s.growth_n
    lang = _lang(golden_sturmian(), 2 * n_max + 1, max(8192, 40 * n_max * n_max))
    bad = []
    for field in (QQ, GF2):
        for n, dim in sa.growth_dims(lang, n_max, field):
            if not ((n + 1) * (n + 2) // 2 <= dim <= 2 * n * (2 * n + 1)):
                bad.append((field.name, n, dim))
    ok = not bad
    detail = f"(n+1)(n+2)/2 <= dim V^n <= 2n(2n+1), n<={n_max}, both fields" if ok else f"violations {bad[:3]}"
    return CheckResult("04-sturmian-sandwich", ok, detail)


def check_05_oracle_equivalence(s: Scale) -> CheckResult:
    n_max = s.oracle_n
    lang = _lang(golden_sturmian(), 2 * n_max + 1, 8192)
    bad = []
    for field in (QQ, GF2):
        if sa.growth_dims(lang, n_max, field) != sa.bruteforce_dims(lang, n_max, field):
            bad.append(field.name)
    ok = not bad
    detail = f"levelwise dims == brute-force product rank, n<={n_max}, both fields" if ok else f"mismatch over {bad}"
    return CheckResult("05-oracle-equivalence", ok, detail)


def check_06_module_bound(s: Scale) -> CheckResult:
    n_max = s.module_n
    lang = _lang(golden_sturmian(), 2 * n_max + 1, 8192)
    dims = sa.module_growth(lang, n_max)
    bad = [(n, d) for n, d in dims if n >= 1 and d != 2 * n + 1]
    ok = not bad and dims[0] == (0, 1)
    detail = f"dim V^n.delta_0 = 2n+1 = gamma(x,n) for n<={n_max}" if ok else f"violations {bad[:3]}"
    return CheckResult("06-module-bound", ok, detail)


def check_07_adding_machine_matrices(s: Scale, group) -> CheckResult:
    grp = group("adding_machine")
    a = mr.parse_element(grp, "a", QQ)
    one = mr.parse_element(grp, "1", QQ)
    lvl1_ok = mr.image_at_level(grp, a, 1, QQ) == {(0, 1): a, (1, 0): one}
    lvl2_ok = mr.image_at_level(grp, a, 2, QQ) == {(0, 3): a, (1, 2): one, (2, 0): one, (3, 1): one}
    ok = lvl1_ok and lvl2_ok
    detail = "level-1 [[0,a],[1,0]] and level-2 4x4 image verified entrywise" if ok else (
        f"level1={lvl1_ok} level2={lvl2_ok}"
    )
    return CheckResult("07-adding-machine-matrices", ok, detail)


def check_08_grig_witness(s: Scale, group) -> CheckResult:
    grp = group("grigorchuk")
    try:
        m = mr.grig_witness(grp)
    except IdentityError as e:
        return CheckResult("08-grig-witness", False, str(e))
    entry = mr.format_element(grp, m[(1, 1)])
    ok = set(m) == {(1, 1)} and entry == "1+b+c+d"
    detail = f"image of b+c+d+1 is diag(0, {entry}): the nonzero block repeats the element itself"
    return CheckResult("08-grig-witness", ok, detail)


def check_09_grig_structure(s: Scale, group) -> CheckResult:
    grp = group("grigorchuk")
    problems = []
    nuc = grp.nucleus()
    if len(nuc) != 5:
        problems.append(f"nucleus size {len(nuc)}")
    for name in "abcd":
        g = grp.gens[name]
        if grp.multiply(g, g) != grp.identity:
            problems.append(f"{name} not involution")
    if grp.multiply(grp.gens["b"], grp.gens["c"]) != grp.gens["d"]:
        problems.append("b.c != d")
    if not grp.germ_is_unit(grp.gens["d"], ((), (0,))):
        problems.append("germ of d at 0^inf not a unit")
    if grp.germ_is_unit(grp.gens["b"], ((), (1,))):
        problems.append("germ of b at 1^inf reported trivial")
    ok = not problems
    detail = "nucleus {1,a,b,c,d}; involutions; b.c=d; germ facts at 0^inf/1^inf" if ok else "; ".join(problems)
    return CheckResult("09-grig-structure", ok, detail)


def check_10_homomorphism(s: Scale, group, seed: int) -> CheckResult:
    grp = group("grigorchuk")
    bad = []
    sampled = hashlib.sha256()
    for field in (GF2, QQ):
        for level in (1, 2, 3):
            passed, digest = mr.homomorphism_check(grp, s.hom_samples, level, field, seed=seed + level)
            sampled.update(digest.encode())
            if not passed:
                bad.append((field.name, level))
    ok = not bad
    detail = f"{s.hom_samples} product/sum samples at levels 1-3 over F2 and Q" if ok else f"failures {bad}"
    # What was sampled, so that check 13 compares the samples of two runs.
    return CheckResult("10-homomorphism", ok, f"{detail}, samples sha256 {sampled.hexdigest()[:12]}")


def check_11_thinned_growth(s: Scale, group) -> CheckResult:
    grp = group("grigorchuk")
    res = mr.thinned_growth(grp, s.thinned_n, GF2)
    lo, hi = -(-s.thinned_n // 3), s.thinned_n
    slope = mr.loglog_slope(res.dims, lo, hi)
    ok = res.stabilized and 1.5 <= slope <= 2.5
    detail = (
        f"dim V^{s.thinned_n}={res.dims[-1][1]}, level {res.level} "
        f"(stabilized={res.stabilized}), log-log slope {slope:.3f} on [{lo},{hi}]"
    )
    return CheckResult("11-thinned-growth", ok, detail)


def check_12_contraction(s: Scale, group) -> CheckResult:
    problems = []
    for name in ("adding_machine", "grigorchuk"):
        est = group(name).contraction_estimate(length_cap=s.contraction_cap)
        if est.ratio > Fraction(3, 5):
            problems.append(f"{name} estimate {est.ratio} at depth {est.depth}")
    model = GermGroupoidModel(group("adding_machine"))
    for text in ("|1", "|0", "|01", "1|0", "0|1"):
        unit = parse_point(text, 2)
        for r in range(s.module_n + 1):
            g = model.ball(unit, r).num_vertices
            if g != 2 * r + 1:
                problems.append(f"gamma({text},{r})={g}")
    ok = not problems
    detail = (
        f"estimates <= 3/5 at cap {s.contraction_cap}; adding-machine gamma=2r+1, r<={s.module_n}, 5 units"
        if ok
        else "; ".join(problems[:3])
    )
    return CheckResult("12-contraction", ok, detail)


def check_13_determinism(s: Scale, seed: int) -> CheckResult:
    first = report_text("tiny", seed=seed, include_determinism=False)
    second = report_text("tiny", seed=seed, include_determinism=False)
    ok = first == second
    detail = "two same-seed runs produced byte-identical reports" if ok else "reports differ"
    return CheckResult("13-determinism", ok, detail)


def run_checks(profile: str, seed: int, include_determinism: bool = True) -> list[CheckResult]:
    """Run the checks of one profile.  Each preset group is built once per
    call and shared: checks 02 and 08-12 use one Grigorchuk group, checks
    07 and 12 (and 02 at full) one adding-machine group.  The groups are
    dropped before check 13, whose two runs each build their own, so it
    still compares two cold runs and the outer run's groups are not held
    alive while they run."""
    if profile not in SCALES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(SCALES)}")
    s = SCALES[profile]
    group = functools.cache(group_from_spec)
    results = [
        check_01_sturmian_complexity(s),
        check_02_delta_consistency(s, group),
        check_03_main_inequality(s),
        check_04_sturmian_sandwich(s),
        check_05_oracle_equivalence(s),
        check_06_module_bound(s),
        check_07_adding_machine_matrices(s, group),
        check_08_grig_witness(s, group),
        check_09_grig_structure(s, group),
        check_10_homomorphism(s, group, seed=seed),
        check_11_thinned_growth(s, group),
        check_12_contraction(s, group),
    ]
    group.cache_clear()
    if include_determinism:
        results.append(check_13_determinism(s, seed=seed))
    return results


def format_report(profile: str, seed: int, results: list[CheckResult]) -> str:
    lines = [f"profile={profile} seed={seed}"]
    for res in results:
        lines.append(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    return "\n".join(lines) + "\n"


def report_text(profile: str, seed: int, include_determinism: bool) -> str:
    return format_report(profile, seed, run_checks(profile, seed=seed, include_determinism=include_determinism))
