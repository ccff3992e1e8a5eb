import random

import pytest

from groupoid_growth import subshift
from groupoid_growth.subshift import LanguageError, build_language, recurrence_check
from groupoid_growth.words import (
    Alphabet,
    ExplicitSource,
    SubstitutionSource,
    golden_sturmian,
    source_from_config,
    thue_morse,
)


def constant_source():
    return SubstitutionSource({0: (0,)}, 0, Alphabet(1))


class TestBuildLanguage:
    def test_constant(self):
        lang = build_language(constant_source(), n_max=6, prefix_budget=64)
        assert [lang.complexity(n) for n in range(7)] == [1] * 7

    def test_golden_p5(self):
        lang = build_language(golden_sturmian(), n_max=5, prefix_budget=4096)
        assert lang.complexity(5) == 6

    def test_thue_morse_p3(self):
        lang = build_language(thue_morse(), n_max=3, prefix_budget=4096)
        assert lang.complexity(3) == 6
        # Independent oracle: brute-force window scan of a long prefix.
        prefix = thue_morse().prefix(64)
        factors = {prefix[i : i + 3] for i in range(len(prefix) - 2)}
        assert set(lang.factors[3]) == factors == {
            bytes(t) for t in [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
        }

    def test_full_shift_window_count(self):
        word = []
        for v in range(16):  # de-Bruijn-ish cover: concatenate all 4-bit blocks
            word.extend((v >> 3 & 1, v >> 2 & 1, v >> 1 & 1, v & 1))
        lang = build_language(ExplicitSource(tuple(word), Alphabet(2)), n_max=4, prefix_budget=64)
        # Not every 4-word occurs in this particular explicit word, but
        # complexity is bounded by 2^4 and all 1-letter factors appear.
        assert lang.complexity(1) == 2
        assert lang.complexity(4) <= 16

    def test_budget_validation(self):
        with pytest.raises(LanguageError):
            build_language(golden_sturmian(), n_max=10, prefix_budget=5)

    def test_monotone_complexity(self):
        lang = build_language(golden_sturmian(), n_max=20, prefix_budget=4096)
        ps = [lang.complexity(n) for n in range(1, 21)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_factor_sets_sorted(self):
        lang = build_language(thue_morse(), n_max=6, prefix_budget=2048)
        for bucket in lang.factors:
            assert bucket == sorted(bucket)

    def test_extendability_reported(self):
        lang = build_language(golden_sturmian(), n_max=10, prefix_budget=4096)
        assert lang.extendable_up_to == 10


class TestComplexityQueries:
    def test_out_of_range(self):
        lang = build_language(golden_sturmian(), n_max=5, prefix_budget=1024)
        with pytest.raises(LanguageError):
            lang.complexity(6)

    def test_sturmian_range(self):
        lang = build_language(golden_sturmian(), n_max=50, prefix_budget=30_000)
        assert all(lang.complexity(n) == n + 1 for n in range(1, 51))

    def test_fibonacci_substitution_equals_golden(self):
        sub = SubstitutionSource({0: (0, 1), 1: (0,)}, 0, Alphabet(2))
        a = build_language(sub, n_max=50, prefix_budget=30_000)
        b = build_language(golden_sturmian(), n_max=50, prefix_budget=30_000)
        assert [a.complexity(n) for n in range(51)] == [b.complexity(n) for n in range(51)]


class TestDeltaFormula:
    def test_sturmian_values(self):
        lang = build_language(golden_sturmian(), n_max=10, prefix_budget=4096)
        assert lang.delta_formula(1) == 3
        assert lang.delta_formula(5) == 11

    def test_constant(self):
        lang = build_language(constant_source(), n_max=10, prefix_budget=64)
        assert all(lang.delta_formula(r) == 1 for r in range(6))

    def test_range_check(self):
        lang = build_language(golden_sturmian(), n_max=10, prefix_budget=4096)
        with pytest.raises(LanguageError):
            lang.delta_formula(6)


class TestRecurrence:
    def test_constant_true(self):
        lang = build_language(constant_source(), n_max=4, prefix_budget=128)
        assert recurrence_check(lang, constant_source(), 2, 1)

    def test_golden_gap(self):
        lang = build_language(golden_sturmian(), n_max=5, prefix_budget=4096)
        assert recurrence_check(lang, golden_sturmian(), 3, 13)

    def test_non_recurrent_explicit(self):
        src = ExplicitSource(tuple([0] * 30 + [1]), Alphabet(2))
        lang = build_language(src, n_max=1, prefix_budget=64)
        assert not recurrence_check(lang, src, 1, 3)


def window_scan(prefix: bytes, n: int) -> list[bytes]:
    """Every distinct length-n window of the prefix, sorted."""
    return sorted({prefix[i : i + n] for i in range(len(prefix) - n + 1)})


def brute_extendable(prefix: bytes, n_max: int) -> int:
    """The least m < n_max with a length-m window that no window of length m+1 extends."""
    for m in range(n_max):
        longer = set(window_scan(prefix, m + 1))
        if any(all(f + bytes([a]) not in longer for a in range(256)) for f in window_scan(prefix, m)):
            return m
    return n_max


def seeded_configs(seed: int) -> list[dict]:
    """Two descriptors of each of the five source kinds; the explicit words
    have 7 and 25 letters, shorter than some n_max and than some budgets."""
    rng = random.Random(seed)
    out = []
    for length in (7, 25):
        out.append({"kind": "sturmian", "cf": [rng.randint(1, 4) for _ in range(3)], "cf_periodic": True})
        tail = "".join(str(rng.randrange(3)) for _ in range(rng.randint(1, 3)))
        rules = {"0": "0" + tail, "1": "".join(str(rng.randrange(3)) for _ in range(rng.randint(1, 3))), "2": "10"}
        out.append({"kind": "substitution", "rules": rules, "seed": "0"})
        skeleton = str(rng.randrange(2)) + "".join(rng.choice("01?") for _ in range(3)) + "?"
        out.append({"kind": "toeplitz", "skeleton": skeleton, "alphabet": 2})
        pre = "".join(rng.choice("012") for _ in range(rng.randint(0, 6)))
        out.append({"kind": "eventually_periodic", "pre": pre, "period": "".join(rng.choice("012") for _ in range(3))})
        out.append({"kind": "explicit", "word": "".join(rng.choice("01") for _ in range(length))})
    return out


class TestAgainstWindowScan:
    """Every factor class and ``extendable_up_to`` against a brute-force scan."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep(self, seed):
        truncated = 0
        for cfg in seeded_configs(seed):
            for n_max in (1, 4, 9):
                for budget in (n_max, n_max + 1, 3 * n_max, 40):
                    source = source_from_config(cfg)
                    prefix = source.prefix(budget)
                    if len(prefix) < n_max:
                        with pytest.raises(LanguageError):
                            build_language(source, n_max, budget)
                        continue
                    lang = build_language(source, n_max, budget)
                    assert lang.factors == [window_scan(prefix, n) for n in range(n_max + 1)], cfg
                    assert lang.extendable_up_to == brute_extendable(prefix, n_max), (cfg, n_max, budget)
                    assert lang.prefix_len == len(prefix)
                    truncated += lang.extendable_up_to < n_max
        assert truncated > 0

    def test_finite_word_shorter_than_budget(self):
        # 01101: "101" ends the word and occurs nowhere else.
        source = ExplicitSource((0, 1, 1, 0, 1), Alphabet(2))
        lang = build_language(source, n_max=4, prefix_budget=100)
        assert lang.prefix_len == 5 and lang.finite_source
        assert lang.factors[3] == [b"\x00\x01\x01", b"\x01\x00\x01", b"\x01\x01\x00"]
        assert lang.extendable_up_to == 3 == brute_extendable(source.prefix(100), 4)

    def test_truncated_budget(self):
        # Thue-Morse begins 011010: "010" is its length-3 suffix and occurs
        # nowhere else, so a budget of 6 leaves it unextended.
        lang = build_language(thue_morse(), n_max=5, prefix_budget=6)
        assert lang.extendable_up_to == 3 == brute_extendable(thue_morse().prefix(6), 5)
        assert build_language(thue_morse(), n_max=5, prefix_budget=64).extendable_up_to == 5

    def test_cap(self, monkeypatch):
        lang = build_language(thue_morse(), n_max=8, prefix_budget=512)
        total = sum(len(bucket) for bucket in lang.factors[1:])
        monkeypatch.setattr(subshift, "FACTOR_CAP", total)
        assert build_language(thue_morse(), n_max=8, prefix_budget=512).factors == lang.factors
        monkeypatch.setattr(subshift, "FACTOR_CAP", total - 1)
        with pytest.raises(LanguageError, match=f"exceeded cap {total - 1}"):
            build_language(thue_morse(), n_max=8, prefix_budget=512)
