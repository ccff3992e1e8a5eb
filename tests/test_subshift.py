import random
import tracemalloc

import pytest

from groupoid_growth import subshift
from groupoid_growth.errors import ResourceError
from groupoid_growth.subshift import build_language, language_from_witnesses
from groupoid_growth.words import (
    EventuallyPeriodicSource,
    ExplicitSource,
    SturmianSource,
    SubstitutionSource,
    golden_sturmian,
    source_from_config,
    thue_morse,
)


def constant_source():
    return SubstitutionSource({0: (0,)}, 0, 1)


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
        lang = build_language(ExplicitSource(tuple(word), 2), n_max=4, prefix_budget=64)
        # Not every 4-word occurs in this particular explicit word, but
        # complexity is bounded by 2^4 and all 1-letter factors appear.
        assert lang.complexity(1) == 2
        assert lang.complexity(4) <= 16

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="prefix budget 5 smaller than n_max 10"):
            build_language(golden_sturmian(), n_max=10, prefix_budget=5)

    def test_monotone_complexity(self):
        lang = build_language(golden_sturmian(), n_max=20, prefix_budget=4096)
        ps = [lang.complexity(n) for n in range(1, 21)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_factor_sets_sorted(self):
        lang = build_language(thue_morse(), n_max=6, prefix_budget=2048)
        for bucket in lang.factors:
            assert bucket == sorted(bucket)


class TestComplexityQueries:
    def test_out_of_range(self):
        lang = build_language(golden_sturmian(), n_max=5, prefix_budget=1024)
        with pytest.raises(ValueError, match="complexity queried at n=6 beyond n_max=5"):
            lang.complexity(6)

    def test_sturmian_range(self):
        lang = build_language(golden_sturmian(), n_max=50, prefix_budget=30_000)
        assert all(lang.complexity(n) == n + 1 for n in range(1, 51))

    def test_fibonacci_substitution_equals_golden(self):
        sub = SubstitutionSource({0: (0, 1), 1: (0,)}, 0, 2)
        a = build_language(sub, n_max=50, prefix_budget=30_000)
        b = build_language(golden_sturmian(), n_max=50, prefix_budget=30_000)
        assert [a.complexity(n) for n in range(51)] == [b.complexity(n) for n in range(51)]


class TestDeltaFormula:
    # The CLI prints a subshift's delta(r) as p(2r).
    def test_sturmian_values(self):
        lang = build_language(golden_sturmian(), n_max=10, prefix_budget=4096)
        assert lang.complexity(2) == 3
        assert lang.complexity(10) == 11

    def test_constant(self):
        lang = build_language(constant_source(), n_max=10, prefix_budget=64)
        assert all(lang.complexity(2 * r) == 1 for r in range(6))

    def test_range_check(self):
        lang = build_language(golden_sturmian(), n_max=10, prefix_budget=4096)
        with pytest.raises(ValueError, match="complexity queried at n=12 beyond n_max=10"):
            lang.complexity(12)


def window_scan(prefix: bytes, n: int) -> list[bytes]:
    """Every distinct length-n window of the prefix, sorted."""
    return sorted({prefix[i : i + n] for i in range(len(prefix) - n + 1)})


def union_scan(words: list[bytes], n: int) -> list[bytes]:
    """Every distinct length-n window of any of the words, sorted."""
    return sorted({f for w in words for f in window_scan(w, n)})


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


def prefix_language(source, n_max: int, budget: int):
    """The language of the single witness ``source.prefix(budget)``."""
    prefix = source.prefix(budget)
    return prefix, language_from_witnesses([prefix], n_max, source.alphabet_size, exact=False)


class TestAgainstWindowScan:
    """Every factor class of :func:`language_from_witnesses` against a
    brute-force window scan of its witnesses."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep(self, seed):
        for cfg in seeded_configs(seed):
            for n_max in (1, 4, 9):
                for budget in (n_max, n_max + 1, 3 * n_max, 40):
                    source = source_from_config(cfg)
                    if len(source.prefix(budget)) < n_max:
                        with pytest.raises(ValueError, match="source ended before n_max letters were produced"):
                            prefix_language(source, n_max, budget)
                        continue
                    prefix, lang = prefix_language(source, n_max, budget)
                    assert lang.factors == [window_scan(prefix, n) for n in range(n_max + 1)], cfg
                    assert lang.prefix_len == len(prefix)

    @pytest.mark.parametrize("seed", range(2))
    def test_several_witnesses(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            n_max = rng.randint(1, 6)
            lengths = [rng.randint(n_max, n_max + 6) for _ in range(rng.randint(1, 4))]
            words = [bytes(rng.randrange(2) for _ in range(length)) for length in lengths]
            lang = language_from_witnesses(words, n_max, 2, exact=False)
            assert lang.factors == [union_scan(words, n) for n in range(n_max + 1)], words
            assert lang.prefix_len == sum(map(len, words))

    @pytest.mark.parametrize("seed", range(3))
    def test_witness_heads(self, seed):
        # Up to four witnesses of n_max..n_max+8 letters over 1-3 letters,
        # with a repeated witness or one a prefix of another.
        rng = random.Random(seed)
        for case in range(40):
            n_max = rng.randint(1, 64)
            size = rng.randint(1, 3)
            lengths = [rng.randint(n_max, n_max + 8) for _ in range(rng.randint(1, 4))]
            words = [bytes(rng.randrange(size) for _ in range(length)) for length in lengths]
            if case % 3 == 1:
                words.append(words[0])
            elif case % 3 == 2:
                words.append(words[0][: rng.randint(n_max, len(words[0]))])
            rng.shuffle(words)
            lang = language_from_witnesses(words, n_max, size, exact=False)
            scans = [union_scan(words, n) for n in range(n_max + 1)]
            assert lang.factors == scans, words
            assert [lang.complexity(n) for n in range(n_max + 1)] == list(map(len, scans))

    def test_finite_word_shorter_than_budget(self):
        # 01101: the whole word is the one witness, within any budget of at
        # least its 5 letters.
        source = ExplicitSource((0, 1, 1, 0, 1), 2)
        lang = build_language(source, n_max=4, prefix_budget=100)
        assert lang.prefix_len == 5 and lang.exact
        assert lang.factors[3] == [b"\x00\x01\x01", b"\x01\x00\x01", b"\x01\x01\x00"]
        with pytest.raises(ResourceError, match="needs 5 letters, more than the budget of 4"):
            build_language(source, n_max=4, prefix_budget=4)

    def test_truncated_budget(self):
        # The exact language reads sigma^2(a) sigma^2(b) for ab in 00, 01, 10, 11.
        with pytest.raises(ResourceError, match="needs 32 letters"):
            build_language(thue_morse(), n_max=5, prefix_budget=31)
        lang = build_language(thue_morse(), n_max=5, prefix_budget=32)
        assert (lang.exact, lang.prefix_len, lang.complexity(5)) == (True, 32, 12)

    def test_cap(self, monkeypatch):
        lang = build_language(thue_morse(), n_max=8, prefix_budget=512)
        total = sum(len(bucket) for bucket in lang.factors[1:])
        monkeypatch.setattr(subshift, "FACTOR_CAP", total)
        assert build_language(thue_morse(), n_max=8, prefix_budget=512).factors == lang.factors
        monkeypatch.setattr(subshift, "FACTOR_CAP", total - 1)
        with pytest.raises(ResourceError, match=f"factor enumeration exceeded cap {total - 1}"):
            build_language(thue_morse(), n_max=8, prefix_budget=512)

    def test_cap_several_witnesses(self, monkeypatch):
        words = [thue_morse().prefix(50), golden_sturmian().prefix(37), thue_morse().prefix(45)]
        total = sum(len(union_scan(words, n)) for n in range(1, 13))
        monkeypatch.setattr(subshift, "FACTOR_CAP", total)
        lang = language_from_witnesses(words, 12, 2, exact=False)
        assert sum(lang.complexity(n) for n in range(1, 13)) == total
        monkeypatch.setattr(subshift, "FACTOR_CAP", total - 1)
        with pytest.raises(ResourceError, match=f"factor enumeration exceeded cap {total - 1}"):
            language_from_witnesses(words, 12, 2, exact=False)


class TestCountsAndFactors:
    """p(n) read off the heads against the factors of one length, built
    on request, and both against a window scan of the witnesses."""

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_match_factors(self, seed):
        kinds = set()
        for cfg in seeded_configs(seed):
            source = source_from_config(cfg)
            for n_max in (1, 7, 16):
                if cfg["kind"] == "explicit" and len(cfg["word"]) < n_max:
                    continue
                witnesses, _ = source.witnesses(n_max, 4096)
                lang = build_language(source, n_max, 4096)
                for n in range(n_max + 1):
                    factors = lang.factors_at(n)
                    assert lang.complexity(n) == len(factors), (cfg, n_max, n)
                    assert factors == union_scan(witnesses, n), (cfg, n_max, n)
                for n in (-1, n_max + 1):
                    with pytest.raises(ValueError, match=f"factors queried at n={n} beyond n_max={n_max}"):
                        lang.factors_at(n)
                kinds.add(cfg["kind"])
        assert kinds == {"sturmian", "substitution", "toeplitz", "eventually_periodic", "explicit"}

    def test_counts_build_no_factors(self):
        # Every factor of Thue-Morse up to n = 200 would peak near 11 MiB.
        tracemalloc.start()
        try:
            lang = build_language(thue_morse(), 200, 40 * 200 * 200)
            ps = [lang.complexity(n) for n in range(201)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps[:4] == [1, 2, 4, 6] and ps[200] == 654
        assert peak < 2 * 2**20, peak


def primitive_configs(seed: int) -> list[dict]:
    """Seeded substitutions on two and three letters (some primitive, some
    not) and Sturmian continued-fraction lists."""
    rng = random.Random(seed)
    out = []
    for size in (2, 2, 3, 3, 3):
        rules = {str(x): "".join(str(rng.randrange(size)) for _ in range(rng.randint(1, 3))) for x in range(size)}
        rules["0"] = "0" + rules["0"]
        out.append({"kind": "substitution", "rules": rules, "seed": "0"})
    for _ in range(5):
        cf = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        out.append({"kind": "sturmian", "cf": cf, "cf_periodic": True})
    return out


class TestExactPaths:
    """Certified languages against the window scan of a long prefix."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep(self, seed):
        exact = 0
        for cfg in primitive_configs(seed) + seeded_configs(seed):
            source = source_from_config(cfg)
            long_prefix = source.prefix(3000)
            scans = [window_scan(long_prefix, n) for n in range(min(len(long_prefix), 20) + 1)]
            for n_max in (1, 4, 9, 20):
                if len(long_prefix) < n_max:
                    continue
                for budget in (2 * n_max, 8192):
                    try:
                        lang = build_language(source, n_max, budget)
                    except ResourceError as e:
                        assert "budget" in str(e), e
                        assert budget < 8192 and cfg["kind"] != "toeplitz", cfg
                        continue
                    if not lang.exact:
                        assert cfg["kind"] in ("substitution", "toeplitz"), cfg
                        continue
                    assert lang.factors == scans[: n_max + 1], (cfg, n_max)
                    exact += cfg["kind"] == "substitution"
        assert exact > 0

    def test_primitivity_needs_a_power(self):
        # 0 -> 01, 1 -> 2, 2 -> 0: the fourth power of the incidence matrix
        # is the first positive one.
        src = SubstitutionSource({0: (0, 1), 1: (2,), 2: (0,)}, 0, 3)
        lang = build_language(src, 12, 8192)
        assert lang.exact and lang.factors == [window_scan(src.prefix(4000), n) for n in range(13)]

    @pytest.mark.parametrize(
        "rules",
        [{0: (0,)}, {0: (0, 1), 1: (1,)}, {0: (0, 1), 1: (1, 0), 2: (2, 2)}],
        ids=["constant", "reducible", "unreachable-letter"],
    )
    def test_other_substitutions_read_a_prefix(self, rules):
        src = SubstitutionSource(rules, 0, len(rules))
        lang = build_language(src, 6, 300)
        assert not lang.exact and lang.prefix_len == 300
        assert lang.factors == [window_scan(src.prefix(300), n) for n in range(7)]

    def test_witness_letters(self):
        # Thue-Morse at n = 200: sigma^8(a) sigma^8(b) for four pairs ab.
        lang = build_language(thue_morse(), 200, 40 * 200 * 200)
        assert (lang.exact, lang.prefix_len, lang.complexity(200)) == (True, 2048, 654)
        # cf [3, 1] needs 771 letters at n = 200; the prefixes tried are 400 and 800.
        lang = build_language(SturmianSource([3, 1], cf_periodic=True), 200, 40 * 200 * 200)
        assert (lang.exact, lang.prefix_len, lang.complexity(200)) == (True, 800, 201)
        # 1101|001 reads 4 + 3 + 200 letters, not the budget of 1,600,000.
        lang = build_language(EventuallyPeriodicSource((1, 1, 0, 1), (0, 0, 1), 2), 200, 40 * 200 * 200)
        assert (lang.exact, lang.prefix_len, lang.complexity(200)) == (True, 207, 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_eventually_periodic_reads_one_period_past_the_preperiod(self, seed):
        # |pre| + |per| + n letters hold the factors of every longer prefix;
        # a smaller budget raises.  The heads of length n_max are the
        # factors; the shorter ones are the witness's suffixes, which follow
        # where it ends.
        rng = random.Random(seed)
        for _ in range(8):
            pre = tuple(rng.randrange(3) for _ in range(rng.randint(0, 6)))
            per = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
            n_max = rng.randint(1, 12)
            need = len(pre) + len(per) + n_max
            source = EventuallyPeriodicSource(pre, per, 3)
            with pytest.raises(ResourceError, match=f"needs {need} letters, more than the budget of {need - 1}"):
                build_language(source, n_max, need - 1)
            for budget in (need, need + rng.randint(1, 60), 8192):
                lang = build_language(source, n_max, budget)
                _, ref = prefix_language(source, n_max, budget)
                assert (lang.exact, lang.prefix_len) == (True, need)
                assert lang.counts == ref.counts and lang.factors == ref.factors
                if budget == need:
                    assert lang.heads == ref.heads

    def test_sturmian_over_budget(self):
        with pytest.raises(ResourceError, match="fewer than the 51"):
            build_language(golden_sturmian(), 50, 60)
