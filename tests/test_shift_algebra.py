import random
import tracemalloc
from typing import NamedTuple

import pytest

from groupoid_growth import cli, fields, shift_algebra
from groupoid_growth.errors import ResourceError
from groupoid_growth.fields import GF2, QQ, BitRowBasis, Field, new_basis, set_bits
from groupoid_growth.shift_algebra import (
    WindowSpace,
    bruteforce_dims,
    expansive_certificate,
    growth_dims,
    module_growth,
    semigroup_dims,
)
from groupoid_growth.subshift import build_language
from groupoid_growth.words import golden_sturmian, source_from_config, thue_morse

ONE, T, T_INV, D0, D1 = (0, None), (1, None), (-1, None), (0, 0), (0, 1)
GOLDEN_JSON = '{"kind": "sturmian", "cf": [1], "cf_periodic": true}'


def seeded_sturmian(seed):
    rng = random.Random(seed)
    return {"kind": "sturmian", "cf": [rng.randint(1, 3) for _ in range(rng.randint(1, 4))], "cf_periodic": True}


# One source of each kind, with a 3-letter alphabet among them, and more
# Sturmian words and a Chacon prefix for the reversal fold.
SOURCES = {
    "golden": {"kind": "sturmian", "cf": [1], "cf_periodic": True},
    "thue-morse": {"kind": "substitution", "rules": {"0": "01", "1": "10"}, "seed": 0},
    "sturmian-3-1": {"kind": "sturmian", "cf": [3, 1], "cf_periodic": True},
    "tribonacci": {"kind": "substitution", "rules": {"0": "01", "1": "02", "2": "0"}, "seed": 0},
    "paperfolding": {"kind": "toeplitz", "skeleton": "0?1?"},
    "eventually-periodic": {"kind": "eventually_periodic", "pre": "1101", "period": "001"},
    "explicit": {"kind": "explicit", "word": "0110100110010110100101100110100101"},
    "sturmian-seed-3": seeded_sturmian(3),
    "sturmian-seed-4": seeded_sturmian(4),
    "sturmian-seed-5": seeded_sturmian(5),
    "chacon-prefix": {"kind": "substitution", "rules": {"0": "0010", "1": "1"}, "seed": 0},
}


def source_language(name: str, n_max: int):
    return build_language(source_from_config(SOURCES[name]), n_max=n_max, prefix_budget=4096)


# The generator action on (exponent, support) evaluations, one monomial at
# a time: the reference for the flat candidate loop of growth_dims.
class Monomial(NamedTuple):
    """A 0/1 evaluation vector: exponent k, bitmask of the window ranks where it is 1."""

    k: int
    support: int


def apply_generator(space: WindowSpace, gen: tuple, mono: Monomial) -> Monomial:
    """Left-multiply the algebra element by a generator, on evaluations.

    A generator is a pair (step, letter): (0, None), (1, None) and
    (-1, None) are 1, T and T^-1, and (0, x) is D_x.  On values:
    (T f)(k, u) = f(k-1, u); (T^-1 f)(k, u) = f(k+1, u);
    (D_x f)(k, u) = f(k, u) if u has letter x at position k, else 0.
    """
    step, x = gen
    k, support = mono
    if x is None:
        k += step
        if not -space.n <= k <= space.n:
            raise ResourceError(f"radius exhausted: exponent {k} outside window")
        return Monomial(k, support)
    return Monomial(k, support & space.letter_mask[k + space.n][x])


def unit_monomial(space: WindowSpace) -> Monomial:
    """Evaluation of the algebra unit: 1 exactly on the units (k = 0)."""
    return Monomial(0, (1 << space.p) - 1)


def generator_monomials(space: WindowSpace) -> dict[tuple, Monomial]:
    """Evaluations of the generating set {1, T, T^-1, D_x}, keyed by
    (step, letter) as in :func:`apply_generator`."""
    every = unit_monomial(space).support
    gens = {ONE: Monomial(0, every), T: Monomial(1, every), T_INV: Monomial(-1, every)}
    for x in range(space.lang.alphabet_size):
        gens[(0, x)] = Monomial(0, space.letter_mask[space.n][x])
    return gens


def uncompressed_growth_dims(lang, n_max, field):
    """The levelwise loop of :func:`growth_dims` with one column per window
    in every block and every D_x applied: the reference it must match."""
    space = WindowSpace(lang, n_max)
    gens = generator_monomials(space)
    moves = [g for g in gens if g != ONE]
    blocks = {}

    def insert(mono):
        return bool(mono.support) and blocks.setdefault(mono.k, new_basis(field)).insert(mono.support)

    def rank():
        return sum(b.rank for b in blocks.values())

    seen = set()
    new = []
    for mono in gens.values():
        if (mono.k, mono.support) not in seen:
            seen.add((mono.k, mono.support))
            if insert(mono):
                new.append(mono)
    dims = [(1, rank())]
    for n in range(2, n_max + 1):
        frontier = []
        for mono in new:
            for g in moves:
                cand = apply_generator(space, g, mono)
                if (cand.k, cand.support) not in seen:
                    seen.add((cand.k, cand.support))
                    if insert(cand):
                        frontier.append(cand)
        new = frontier
        dims.append((n, rank()))
    return dims


def reference_bruteforce_dims(lang, n_max, field):
    """:func:`bruteforce_dims` as first written: each level's words held in
    a list and each word walked through one window at a time, its support a
    list of coordinates.  The streamed oracle must match it."""
    n = n_max
    gens = [(0, None), (1, None), (-1, None)] + [(0, x) for x in range(lang.alphabet_size)]
    windows = lang.factors_at(2 * n + 1)
    p = len(windows)

    def evaluate(word):
        support = []
        for ui, u in enumerate(windows):
            j = 0
            alive = True
            for step, x in reversed(word):
                if x is None:
                    j += step
                elif u[j + n] != x:
                    alive = False
                    break
            if alive:
                support.append((j + n) * p + ui)
        return support

    basis = new_basis(field)
    words = [[]]
    dims = []
    for m in range(1, n_max + 1):
        words = [w + [g] for w in words for g in gens]
        for w in words:
            basis.insert(evaluate(w))
        dims.append((m, basis.rank))
    return dims


class RecordingBasis:
    """Wraps a rank accumulator and logs each support it is given, as an
    int bitmask."""

    def __init__(self, basis, log):
        self.basis = basis
        self.log = log

    def insert(self, support):
        self.log.append(support if isinstance(support, int) else sum(1 << i for i in support))
        return self.basis.insert(support)

    @property
    def rank(self):
        return self.basis.rank


@pytest.fixture(scope="module")
def golden():
    return build_language(golden_sturmian(), n_max=25, prefix_budget=16384)


@pytest.fixture(scope="module")
def tm():
    return build_language(thue_morse(), n_max=25, prefix_budget=16384)


class TestWindowSpace:
    def test_dimensions(self, golden):
        space = WindowSpace(golden, 3)
        assert space.p == golden.complexity(7)
        assert len(space.letter_mask) == 7

    def test_too_shallow(self, golden):
        with pytest.raises(ValueError):
            WindowSpace(golden, 13)

    @pytest.mark.parametrize("name", ["thue-morse", "tribonacci", "paperfolding"])
    def test_products_are_unions_of_fibres(self, name):
        # Every product of <= n generators, reached breadth first, is
        # constant on each fibre of u -> u[J_k] of its exponent block.
        n = 5
        space = WindowSpace(source_language(name, 2 * n + 1), n)
        gens = list(generator_monomials(space))
        level = {unit_monomial(space)}
        for _ in range(n):
            level = {apply_generator(space, g, m) for m in level for g in gens}
            for m in level:
                lo, hi = shift_algebra._tested_positions(m.k, n)
                fibre = [u[lo + n : hi + n] for u in space.windows]
                hit = {fibre[i] for i in set_bits(m.support)}
                assert m.support == sum(1 << i for i, f in enumerate(fibre) if f in hit)

    def test_block_columns(self, tm):
        # J_k has 2t + |k| + 1 positions; no position is tested at |k| = n.
        # Each fibre of u -> u[J_k] is represented by its first window.
        n = 4
        space = WindowSpace(tm, n)
        for k in range(-n, n + 1):
            t = (n - 1 - abs(k)) // 2
            width = 2 * t + abs(k) + 1 if t >= 0 else 0
            lo, hi = shift_algebra._tested_positions(k, n)
            first = {}
            for i, u in enumerate(space.windows):
                first.setdefault(u[lo + n : hi + n], i)
            assert set_bits(space.block_reps[k + n]) == sorted(first.values())
            assert len(first) == tm.complexity(width)
            assert space.rank_bound[n][k + n] == tm.complexity(width)

    @staticmethod
    def per_window_tables(lang, n):
        """``letter_mask``, ``block_reps``, ``rank_bound`` and ``mirror`` of
        :class:`WindowSpace`, built by a loop over every (position, window)
        pair and every block's windows."""
        windows = lang.factors_at(2 * n + 1)
        letter_mask = [[0] * lang.alphabet_size for _ in range(2 * n + 1)]
        for i, u in enumerate(windows):
            for masks, x in zip(letter_mask, u):
                masks[x] |= 1 << i
        block_reps = []
        for lo, hi in (shift_algebra._tested_positions(k, n) for k in range(-n, n + 1)):
            first = {}
            for i, u in enumerate(windows):
                first.setdefault(u[lo + n : hi + n], i)
            block_reps.append(sum(1 << i for i in first.values()))
        rank_bound = [
            [lang.complexity(hi - lo) for lo, hi in (shift_algebra._tested_positions(k, m) for k in range(-n, n + 1))]
            for m in range(n + 1)
        ]
        rank_of = {u: i for i, u in enumerate(windows)}
        mirror = [rank_of.get(u[::-1]) for u in windows]
        return letter_mask, block_reps, rank_bound, None if None in mirror else mirror

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "substitution", "rules": {"0": "012", "1": "02", "2": "1"}, "seed": 0},
            SOURCES["thue-morse"],
            SOURCES["eventually-periodic"],
        ],
        ids=["three-letters", "thue-morse", "eventually-periodic"],
    )
    def test_tables_match_per_window_loop(self, cfg):
        # The eventually periodic source is not closed under reversal.
        lang = build_language(source_from_config(cfg), n_max=21, prefix_budget=4096)
        for n in range(1, 11):
            space = WindowSpace(lang, n)
            tables = space.letter_mask, space.block_reps, space.rank_bound, space.mirror
            assert tables == self.per_window_tables(lang, n), n
        assert (space.mirror is None) == (cfg is SOURCES["eventually-periodic"])


class TestGeneratorAction:
    def test_partition_of_unity(self, golden):
        # D_0 + D_1 = 1: the letter masks partition the window set.
        space = WindowSpace(golden, 2)
        gens = generator_monomials(space)
        assert gens[D0].support | gens[D1].support == gens[ONE].support
        assert not (gens[D0].support & gens[D1].support)

    def test_shift_inverse(self, golden):
        space = WindowSpace(golden, 2)
        m = unit_monomial(space)
        assert apply_generator(space, T_INV, apply_generator(space, T, m)) == m

    def test_radius_exhausted(self, golden):
        space = WindowSpace(golden, 1)
        m = unit_monomial(space)
        m = apply_generator(space, T, m)
        with pytest.raises(ResourceError, match="radius exhausted: exponent 2 outside window"):
            apply_generator(space, T, m)

    def test_projection_idempotent(self, golden):
        space = WindowSpace(golden, 2)
        m = generator_monomials(space)[D1]
        assert apply_generator(space, D1, m) == m
        assert not apply_generator(space, D0, m).support

    def test_unknown_generator(self, golden):
        # D_2 names a letter outside the binary alphabet.
        space = WindowSpace(golden, 1)
        with pytest.raises(IndexError):
            apply_generator(space, (0, 2), unit_monomial(space))


class TestGrowthFromComplexity:
    """ROADMAP item 10: where the right extensions of every right special
    factor form a forest, every exponent block reaches its bound and
    dim V^n = sum over k = -n..n of p(|J_k(n)|), over every field."""

    N = 16
    # Name -> (source, closed form of dim V^n).
    ACYCLIC = {
        "golden": (SOURCES["golden"], lambda n: 2 * n * n + 2),
        "cf-2": ({"kind": "sturmian", "cf": [2], "cf_periodic": True}, lambda n: 2 * n * n + 2),
        "cf-3-1-2": ({"kind": "sturmian", "cf": [3, 1, 2], "cf_periodic": True}, lambda n: 2 * n * n + 2),
        "cf-1-2-1-3": ({"kind": "sturmian", "cf": [1, 2, 1, 3], "cf_periodic": True}, lambda n: 2 * n * n + 2),
        "cf-4": ({"kind": "sturmian", "cf": [4], "cf_periodic": True}, lambda n: 2 * n * n + 2),
        "tribonacci": (SOURCES["tribonacci"], lambda n: 4 * n * n - 2 * n + 3),
    }

    @staticmethod
    def block_bounds(lang, n_max: int) -> list[tuple[int, int]]:
        def bound(n):
            spans = (shift_algebra._tested_positions(k, n) for k in range(-n, n + 1))
            return sum(lang.complexity(hi - lo) for lo, hi in spans)

        return [(n, bound(n)) for n in range(1, n_max + 1)]

    @pytest.mark.parametrize("name", list(ACYCLIC))
    def test_dims_reach_the_block_bounds(self, name):
        cfg, closed = self.ACYCLIC[name]
        lang = build_language(source_from_config(cfg), n_max=2 * self.N + 1, prefix_budget=4096)
        bounds = self.block_bounds(lang, self.N)
        assert bounds == [(n, closed(n)) for n in range(1, self.N + 1)]
        for field in (QQ, GF2, Field(3)):
            assert growth_dims(lang, self.N, field) == bounds, field

    def test_thue_morse_falls_short_from_n_2(self):
        # Thue-Morse has a cycle among its right extensions.
        lang = build_language(thue_morse(), n_max=2 * self.N + 1, prefix_budget=4096)
        bounds = self.block_bounds(lang, self.N)
        for field in (QQ, GF2, Field(3)):
            dims = growth_dims(lang, self.N, field)
            assert [n for (n, d), (_, b) in zip(dims, bounds) if d != b] == list(range(2, self.N + 1)), field


class TestGrowthDims:
    def test_first_level(self, golden):
        # 1, T, T^-1, D_0 are independent; D_1 = 1 - D_0.
        dims = growth_dims(golden, 3, QQ)
        assert dims[0] == (1, 4)

    def test_golden_quadratic(self, golden):
        dims = dict(growth_dims(golden, 8, QQ))
        assert all(dims[n] == 2 * n * n + 2 for n in range(2, 9))

    def test_field_agreement(self, golden):
        n = 6
        q = growth_dims(golden, n, QQ)
        f2 = growth_dims(golden, n, GF2)
        f3 = growth_dims(golden, n, Field(3))
        assert q == f2 == f3

    def test_oracle_agreement(self, golden, tm):
        langs = (golden, tm, source_language("sturmian-3-1", 9), source_language("paperfolding", 9))
        for lang in langs:
            for field in (QQ, GF2):
                assert growth_dims(lang, 4, field) == bruteforce_dims(lang, 4, field)

    def test_oracle_cap(self, golden, monkeypatch):
        # Two letters: 5^4 = 625 generator words at n = 4.
        monkeypatch.setattr(shift_algebra, "ORACLE_CAP", 625)
        assert bruteforce_dims(golden, 4, GF2) == growth_dims(golden, 4, GF2)
        monkeypatch.setattr(shift_algebra, "ORACLE_CAP", 624)
        with pytest.raises(ResourceError, match="625 generator words at n=4, over its cap 624"):
            bruteforce_dims(golden, 4, GF2)

    @pytest.mark.parametrize(
        "name", ["golden", "thue-morse", "paperfolding", "sturmian-3-1", "eventually-periodic", "tribonacci"]
    )
    def test_oracle_matches_reference(self, name, monkeypatch):
        # eventually-periodic (1101|001) is not closed under reversal, and
        # tribonacci has three letters.  Each distinct support is inserted
        # once, in the order the reference first inserts it.
        lang = source_language(name, 9)
        for field in (QQ, GF2, Field(3)):
            for n in range(1, 5):
                old, new = [], []
                monkeypatch.setitem(globals(), "new_basis", lambda f: RecordingBasis(fields.new_basis(f), old))
                expected = reference_bruteforce_dims(lang, n, field)
                monkeypatch.setattr(shift_algebra, "new_basis", lambda f: RecordingBasis(fields.new_basis(f), new))
                assert bruteforce_dims(lang, n, field) == expected
                assert new == list(dict.fromkeys(old))
                monkeypatch.undo()

    def test_oracle_memory_is_flat(self, tm):
        # The oracle streams its words: holding the 5^7 = 78,125 words of
        # the top level took a tracemalloc peak of ~10.6 MiB.
        tracemalloc.start()
        try:
            dims = bruteforce_dims(tm, 7, GF2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dims == growth_dims(tm, 7, GF2)
        assert peak < 2**20

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_matches_uncompressed_loop(self, name):
        n = 9
        lang = source_language(name, 2 * n + 1)
        for field in (QQ, GF2, Field(3)):
            assert growth_dims(lang, n, field) == uncompressed_growth_dims(lang, n, field)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one(self, golden, n_max):
        with pytest.raises(ValueError):
            growth_dims(golden, n_max, QQ)

    def test_monotone_and_bounded(self, tm):
        dims = growth_dims(tm, 6, QQ)
        prev = 0
        for n, d in dims:
            assert prev <= d <= (2 * n + 1) * tm.complexity(2 * n)
            prev = d


def unbounded_growth_dims(lang, n_max, field):
    """:func:`growth_dims` without the per-block dimension bound: every
    candidate is inserted.  It asserts at each level that no block's rank
    exceeds ``WindowSpace.rank_bound``, the bound the real loop skips on."""
    space = WindowSpace(lang, n_max)
    gens = generator_monomials(space)
    moves = [g for g in gens if g not in (ONE, (0, lang.alphabet_size - 1))]
    blocks = {}

    def insert(mono):
        if not mono.support:
            return False
        reps = space.block_reps[mono.k + n_max]
        return blocks.setdefault(mono.k, shift_algebra.new_basis(field)).insert(mono.support & reps)

    def rank(n):
        for k, b in blocks.items():
            assert b.rank <= space.rank_bound[n][k + n_max]
        return sum(b.rank for b in blocks.values())

    seen = set()
    new = []
    for mono in gens.values():
        if (mono.k, mono.support) not in seen:
            seen.add((mono.k, mono.support))
            if insert(mono):
                new.append(mono)
    dims = [(1, rank(1))]
    for n in range(2, n_max + 1):
        frontier = []
        for mono in new:
            for g in moves:
                cand = apply_generator(space, g, mono)
                if (cand.k, cand.support) not in seen:
                    seen.add((cand.k, cand.support))
                    if insert(cand):
                        frontier.append(cand)
        new = frontier
        dims.append((n, rank(n)))
    return dims


class NoBoundSpace(WindowSpace):
    """A :class:`WindowSpace` whose blocks are never full."""

    def __init__(self, lang, n):
        super().__init__(lang, n)
        self.rank_bound = [[float("inf")] * (2 * n + 1) for _ in range(n + 1)]


class TestBlockBound:
    N = 10
    BOUND_SOURCES = {
        "golden": SOURCES["golden"],
        "sturmian-seed-1": seeded_sturmian(1),
        "sturmian-seed-2": seeded_sturmian(2),
        "thue-morse": SOURCES["thue-morse"],
        "paperfolding-prefix": SOURCES["paperfolding"],
    }

    @staticmethod
    def counting(monkeypatch):
        """Count the basis inserts :func:`growth_dims` makes."""
        calls = [0]

        def counted_basis(field):
            basis = new_basis(field)
            insert = basis.insert

            def counted(support):
                calls[0] += 1
                return insert(support)

            basis.insert = counted
            return basis

        monkeypatch.setattr(shift_algebra, "new_basis", counted_basis)
        return calls

    @pytest.mark.parametrize("name", sorted(BOUND_SOURCES))
    def test_bounded_matches_unbounded(self, name, monkeypatch):
        # The paperfolding language is read from a 64-letter prefix, so it
        # is inexact and its p(n) is not monotone; the bound must hold anyway.
        budget = 64 if name == "paperfolding-prefix" else 4096
        lang = build_language(source_from_config(self.BOUND_SOURCES[name]), n_max=2 * self.N + 1, prefix_budget=budget)
        assert lang.exact == (name != "paperfolding-prefix")
        calls = self.counting(monkeypatch)
        for field in (QQ, Field(3), GF2):
            calls[0] = 0
            bounded = growth_dims(lang, self.N, field)
            bounded_inserts, calls[0] = calls[0], 0
            assert bounded == unbounded_growth_dims(lang, self.N, field)
            assert calls[0] > bounded_inserts  # the bound was reached and skipped on
            # The reference is also unfolded, so compare with growth_dims
            # itself, folded or not, when no block is ever full.
            calls[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(shift_algebra, "WindowSpace", NoBoundSpace)
                assert growth_dims(lang, self.N, field) == bounded
            assert calls[0] > bounded_inserts

    def test_golden_insert_count(self, monkeypatch):
        # The n=32 golden run over Q, with saturated blocks skipped and the
        # blocks k < 0 folded onto k > 0 by reversal; it made 3,851 inserts
        # before the bound and 2,050 before the fold.
        lang = build_language(golden_sturmian(), n_max=65, prefix_budget=1 << 16)
        calls = self.counting(monkeypatch)
        dims = growth_dims(lang, 32, QQ)
        assert dims[-1] == (32, 2 * 32 * 32 + 2)
        assert calls[0] == 1041


class TestReversalFold:
    # The sources whose length-19 windows are closed under reversal; the
    # others (a toeplitz and a Chacon prefix, 1101|001, the explicit word)
    # take the unfolded loop.  TestGrowthDims.test_matches_uncompressed_loop
    # compares the dims of all of them with the unfolded reference.
    N = 9
    CLOSED = {"golden", "sturmian-3-1", "sturmian-seed-3", "sturmian-seed-4", "sturmian-seed-5", "thue-morse", "tribonacci"}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_mirror(self, name):
        space = WindowSpace(source_language(name, 2 * self.N + 1), self.N)
        assert (space.mirror is not None) == (name in self.CLOSED)
        if space.mirror is not None:
            for i, j in enumerate(space.mirror):
                assert space.windows[j] == space.windows[i][::-1]
                assert space.mirror[j] == i

    def test_mirror_depends_on_length(self):
        # The explicit word's windows of length 9 are closed under reversal,
        # those of length 11 are not; the dims agree on both sides.
        lang = source_language("explicit", 13)
        assert [WindowSpace(lang, n).mirror is not None for n in range(1, 7)] == [True] * 4 + [False] * 2
        for n in (4, 5):
            assert growth_dims(lang, n, QQ) == uncompressed_growth_dims(lang, n, QQ)

    def test_no_negative_block_when_folded(self, monkeypatch):
        # A closed language never inserts into a block k < 0; one that is
        # not closed does.  Block k's row is read from block_reps[k + N]
        # once per insert.
        exponents = []

        class Recording(list):
            def __getitem__(self, j):
                exponents[-1].append(j - TestReversalFold.N)
                return super().__getitem__(j)

        class RecordingSpace(WindowSpace):
            def __init__(self, lang, n):
                super().__init__(lang, n)
                self.block_reps = Recording(self.block_reps)

        monkeypatch.setattr(shift_algebra, "WindowSpace", RecordingSpace)
        inserts = TestCandidateStream.recording(monkeypatch)
        for name in ("thue-morse", "eventually-periodic"):
            exponents.append([])
            growth_dims(source_language(name, 2 * self.N + 1), self.N, QQ)
        assert len(inserts) == sum(map(len, exponents))
        assert min(exponents[0]) == 0 and max(exponents[0]) == self.N
        assert min(exponents[1]) == -self.N


class TestCandidateStream:
    """The inserts :func:`growth_dims` makes, pinned: a change of how
    candidates are held must make as many inserts and accept as many."""

    @staticmethod
    def recording(monkeypatch):
        """Record whether each basis insert raised the rank."""
        log = []

        def recorded_basis(field):
            basis = new_basis(field)
            insert = basis.insert

            def recorded(support):
                accepted = insert(support)
                log.append(accepted)
                return accepted

            basis.insert = recorded
            return basis

        monkeypatch.setattr(shift_algebra, "new_basis", recorded_basis)
        return log

    @pytest.mark.parametrize(
        "name, n, field, inserts, accepted",
        [
            ("golden", 32, GF2, 1041, 1041),
            ("thue-morse", 22, QQ, 2103, 1231),
            ("thue-morse", 22, GF2, 2103, 1231),
        ],
        ids=str,
    )
    def test_insert_counts(self, name, n, field, inserts, accepted, monkeypatch):
        lang = build_language(source_from_config(SOURCES[name]), n_max=2 * n + 1, prefix_budget=1 << 16)
        log = self.recording(monkeypatch)
        growth_dims(lang, n, field)
        assert len(log) == inserts
        assert sum(log) == accepted

    @pytest.mark.parametrize("name", ["golden", "thue-morse", "paperfolding", "eventually-periodic"])
    def test_gf2_rows_are_bitmasks(self, name, monkeypatch):
        # Over GF(2) a block's row reaches BitRowBasis.insert as the int
        # mask it reduces, not as a list of coordinates.
        types = []
        insert = BitRowBasis.insert

        def recorded(basis, support):
            types.append(type(support))
            return insert(basis, support)

        monkeypatch.setattr(BitRowBasis, "insert", recorded)
        growth_dims(source_language(name, 19), 9, GF2)
        assert types and set(types) == {int}


class TestSemigroupDims:
    def test_golden_values(self, golden):
        # 1 + sum_{k<=n} (k+1) for the Sturmian complexity p(k) = k+1.
        dims = semigroup_dims(golden, 4)
        assert dims == [(0, 1), (1, 3), (2, 6), (3, 10), (4, 15)]

    def test_thue_morse_n3(self, tm):
        assert dict(semigroup_dims(tm, 3))[3] == 1 + 2 + 4 + 6

    def test_too_shallow(self, golden):
        with pytest.raises(ValueError):
            semigroup_dims(golden, 26)


class TestModule:
    def test_window_exhaustion(self, golden):
        # The point's central window of length 2*13+1 is deeper than the language.
        with pytest.raises(ValueError):
            module_growth(golden, 13)

    def test_module_growth_linear(self, golden, tm):
        for lang in (golden, tm):
            dims = module_growth(lang, 8)
            assert dims == [(n, 2 * n + 1) for n in range(9)]

    def test_field_independent(self, capsys):
        # --field is still parsed and digested, but the table does not use it.
        argv = ["module-growth", "--source", GOLDEN_JSON, "--n-max", "6", "--field"]
        tables = []
        for field in ("Q", "F2", "Fp:5"):
            assert cli.main(argv + [field]) == 0
            tables.append(capsys.readouterr().out.split("\n", 1)[1])  # past the #config line
        assert tables[0] == tables[1] == tables[2]
        assert cli.main(argv + ["Fp:4"]) == 2


def atom_key(letters, n: int) -> frozenset:
    """Membership pattern of a point in the domains of all products of
    <= n shift bisections and their inverses: the definition of an atom,
    the oracle for :func:`expansive_certificate`, which counts the atoms as p(2n).

    ``letters(k)`` must be defined for k in [-n, n-1].  The key is the
    set of surviving generator sequences (in application order): S_x
    needs letter x at the current origin and shifts it right, S_x^-1
    needs letter x just left of the origin and shifts it left.
    """
    accepted = set()
    stack = [((), 0)]
    while stack:
        seq, o = stack.pop()
        if len(seq) >= n:
            continue
        # Only the token matching the letter at the origin survives, so
        # exactly two extensions are ever viable.
        for tok, no in ((("S", letters(o)), o + 1), (("S-", letters(o - 1)), o - 1)):
            nseq = seq + (tok,)
            accepted.add(nseq)
            stack.append((nseq, no))
    return frozenset(accepted)


def _enumerated_atoms(lang, n):
    """Atom count by definition: distinct atom keys over the length-2n windows."""
    return len({atom_key(lambda k, w=w: w[k + n], n) for w in lang.factors[2 * n]})


class TestExpansive:
    def test_atoms_separate_golden_windows(self, golden):
        for n in range(1, 7):
            assert _enumerated_atoms(golden, n) == expansive_certificate(golden, n) == 2 * n + 1
            assert golden.complexity(2 * n) == 2 * n + 1

    def test_atoms_separate_tm_windows(self, tm):
        for n in range(1, 7):
            assert _enumerated_atoms(tm, n) == expansive_certificate(tm, n) == tm.complexity(2 * n)

    def test_atom_key_depends_on_letters(self):
        a = atom_key(lambda k: 0, 2)
        b = atom_key(lambda k: 1 if k == 0 else 0, 2)
        assert a != b


class TestMonomial:
    def test_generator_names(self, golden):
        # The generating set {1, T, T^-1, D_0, D_1} as (step, letter) pairs.
        assert list(generator_monomials(WindowSpace(golden, 1))) == [ONE, T, T_INV, D0, D1]
