"""Mutant table for ``verify-all``: each row breaks one kernel by a
``monkeypatch`` and names the checks of ``--profile quick`` that must FAIL.
A mutant that no check kills yet is listed in ``SURVIVORS`` with the
ROADMAP item meant to kill it, and must still pass every check, so the
change that closes the gap has to move its row.
"""

import ast
import random

import pytest

from groupoid_growth import groupoid, selfsimilar, shift_algebra, verify, words
from groupoid_growth import matrix_recursion as mr
from groupoid_growth.fields import GF2, QQ
from groupoid_growth.subshift import build_language


def _patch_canonical_code(monkeypatch, mutant):
    # verify holds canonical_code by name, as groupoid does.
    for module in (groupoid, verify):
        monkeypatch.setattr(module, "canonical_code", mutant)


def code_without_labels(monkeypatch):
    """The walk numbers the vertices as before, but the code drops the labels."""
    original = groupoid.canonical_code

    def mutant(ball):
        m, edges = ast.literal_eval(original(ball).decode())
        return repr((m, sorted((a, b) for a, b, _ in edges))).encode()

    _patch_canonical_code(monkeypatch, mutant)


def code_in_edge_order(monkeypatch):
    """Vertices are numbered as the edge list first names them, not in walk order."""

    def mutant(ball):
        num = {0: 0}
        for a, b, _ in ball.edges:
            num.setdefault(a, len(num))
            num.setdefault(b, len(num))
        return repr((ball.num_vertices, sorted((num[a], num[b], l) for a, b, l in ball.edges))).encode()

    _patch_canonical_code(monkeypatch, mutant)


def no_mirror_twin(monkeypatch):
    """``growth_dims`` offers each mirror twin with an empty support, which never enters the rank."""
    monkeypatch.setattr(shift_algebra, "set_bits", lambda mask: [])


def block_rank_over_q(monkeypatch):
    """``growth_dims`` ranks every exponent block over Q, whatever the field."""
    original = shift_algebra.growth_dims
    monkeypatch.setattr(shift_algebra, "growth_dims", lambda lang, n, field: original(lang, n, QQ))


def every_germ_a_unit(monkeypatch):
    """``germ_is_unit`` answers True at every point."""
    monkeypatch.setattr(selfsimilar.SelfSimilarGroup, "germ_is_unit", lambda self, g, point: True)


def thinned_growth_unstabilized(monkeypatch):
    """``thinned_growth`` returns its table flagged as not stabilized."""
    original = mr.thinned_growth
    monkeypatch.setattr(mr, "thinned_growth", lambda *args: original(*args)._replace(stabilized=False))


def thinned_growth_over_q(monkeypatch):
    """``thinned_growth`` ranks over Q, whatever field it is asked for."""
    original = mr.thinned_growth
    monkeypatch.setattr(mr, "thinned_growth", lambda group, n_max, field: original(group, n_max, QQ))


def thinned_growth_plus_n(monkeypatch):
    """``thinned_growth`` adds n to every dim V^n of its table."""
    original = mr.thinned_growth

    def mutant(*args):
        res = original(*args)
        return res._replace(dims=[(n, d + n) for n, d in res.dims])

    monkeypatch.setattr(mr, "thinned_growth", mutant)


def thinned_growth_nine_tenths(monkeypatch):
    """``thinned_growth`` reports 9/10 of every dim V^n, rounded down."""
    original = mr.thinned_growth

    def mutant(*args):
        res = original(*args)
        return res._replace(dims=[(n, d * 9 // 10) for n, d in res.dims])

    monkeypatch.setattr(mr, "thinned_growth", mutant)


def level_two_in_row_zero(monkeypatch):
    """``level_sections(g, 2)`` puts every column's section in row 0."""
    original = selfsimilar.SelfSimilarGroup.level_sections

    def mutant(self, g, level):
        out = original(self, g, level)
        return tuple((0, e) for _, e in out) if level == 2 else out

    monkeypatch.setattr(selfsimilar.SelfSimilarGroup, "level_sections", mutant)


def sturmian_short_witness(monkeypatch):
    """A Sturmian source offers its (n+1)-letter prefix as an exact witness."""
    monkeypatch.setattr(words.SturmianSource, "witnesses", lambda self, n, budget: ([self.prefix(n + 1)], True))


def element_without_one(monkeypatch):
    """``parse_element`` drops every ``1`` term; the element ``1`` parses as 0."""
    original = mr.parse_element

    def mutant(group, text, field):
        terms = [t for t in text.replace(" ", "").split("+") if t != "1"]
        return original(group, "+".join(terms) or "0", field)

    monkeypatch.setattr(mr, "parse_element", mutant)


def germ_steps_without_inverses(monkeypatch):
    """``GermGroupoidModel.steps`` keeps only the generators, not their inverses."""
    init = groupoid.GermGroupoidModel.__init__

    def mutant(self, group):
        init(self, group)
        self.steps = [group.gens[n] for n in group.gen_names]

    monkeypatch.setattr(groupoid.GermGroupoidModel, "__init__", mutant)


def module_growth_one_sided(monkeypatch):
    """``module_growth`` gives dim V^n.delta_0 = n+1, one side of the orbit."""
    monkeypatch.setattr(shift_algebra, "module_growth", lambda lang, n_max: [(n, n + 1) for n in range(n_max + 1)])


def contraction_ratio_doubled(monkeypatch):
    """``contraction_estimate`` reports twice its ratio."""
    original = selfsimilar.SelfSimilarGroup.contraction_estimate

    def mutant(self, *args, **kwargs):
        est = original(self, *args, **kwargs)
        return est._replace(ratio=2 * est.ratio)

    monkeypatch.setattr(selfsimilar.SelfSimilarGroup, "contraction_estimate", mutant)


def homomorphism_seed_ignored(monkeypatch):
    """``homomorphism_check`` draws its own random seed instead of the one it is given."""
    original = mr.homomorphism_check

    def mutant(group, samples, level, field, seed):
        return original(group, samples, level, field, seed=random.randrange(2**32))

    monkeypatch.setattr(mr, "homomorphism_check", mutant)


def ring_product_reversed(monkeypatch):
    """``ring_product(group, a, b, field)`` computes b*a."""
    original = mr.ring_product
    monkeypatch.setattr(mr, "ring_product", lambda group, a, b, field: original(group, b, a, field))


# mutant -> the checks it must make FAIL
KILLED = {
    code_without_labels: {"02-delta-consistency"},
    code_in_edge_order: {"02-delta-consistency"},
    no_mirror_twin: {"05-oracle-equivalence"},
    every_germ_a_unit: {"09-grig-structure"},
    thinned_growth_unstabilized: {"11-thinned-growth"},
    level_two_in_row_zero: {"07-adding-machine-matrices", "10-homomorphism", "11-thinned-growth"},
    sturmian_short_witness: {"01-sturmian-complexity", "04-sturmian-sandwich"},
    element_without_one: {"07-adding-machine-matrices", "08-grig-witness"},
    germ_steps_without_inverses: {"12-contraction"},
    module_growth_one_sided: {"06-module-bound"},
    # Check 10's detail ends with a digest of what it sampled, which differs
    # between check 13's two runs.
    homomorphism_seed_ignored: {"13-determinism"},
    ring_product_reversed: {"10-homomorphism"},
}

# mutant -> the ROADMAP item meant to kill it
SURVIVORS = {
    block_rank_over_q: "item 10: exact algebra growth from p(n), which differs between Q and F2",
    # Both estimates are 1/6 at quick (1/8 at full): twice that is still
    # within check 12's bound of 3/5.
    contraction_ratio_doubled: "item 2: check 12 reads the certified nucleus, not an estimate",
    # Each keeps check 11's log-log slope within [1.5, 2.5]: 1.934, 1.864
    # and 1.911 at quick, in this order.
    thinned_growth_over_q: "item 16: check 11 tests the dyadic closed form, which differs between Q and F2",
    thinned_growth_plus_n: "item 16: check 11 tests the dyadic closed form, not a float slope",
    thinned_growth_nine_tenths: "item 16: check 11 tests the dyadic closed form, not a float slope",
}


def failing_checks() -> set[str]:
    return {r.name for r in verify.run_checks("quick", seed=0) if not r.ok}


@pytest.mark.parametrize("mutant", list(KILLED), ids=lambda m: m.__name__)
def test_killed(monkeypatch, mutant):
    mutant(monkeypatch)
    assert failing_checks() == KILLED[mutant]


@pytest.mark.parametrize("mutant", list(SURVIVORS), ids=lambda m: m.__name__)
def test_survivor_passes_every_check(monkeypatch, mutant):
    mutant(monkeypatch)
    assert failing_checks() == set()


def test_block_rank_over_q_is_live(monkeypatch):
    # The mutant survives because check 05 compares only the golden
    # language, where Q and F2 agree; it is live elsewhere: the toeplitz
    # 0??1 language has dim V^6 = 144 over F2 and 146 over Q.
    lang = build_language(words.source_from_config({"kind": "toeplitz", "skeleton": "0??1"}), n_max=13, prefix_budget=4096)
    assert shift_algebra.growth_dims(lang, 6, GF2)[-1] == (6, 144)
    block_rank_over_q(monkeypatch)
    assert shift_algebra.growth_dims(lang, 6, GF2)[-1] == (6, 146)
