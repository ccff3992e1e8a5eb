import json
import random
import tracemalloc

import pytest

from groupoid_growth.errors import ResourceError
from groupoid_growth.words import (
    EventuallyPeriodicSource,
    ExplicitSource,
    SturmianSource,
    SubstitutionSource,
    ToeplitzSource,
    golden_sturmian,
    source_from_config,
    thue_morse,
)


def letters(digits: str) -> bytes:
    """The word spelled by the decimal digits, as the bytes ``prefix`` returns."""
    return bytes(map(int, digits))


class TestAlphabet:
    def test_invalid(self):
        # Every source checks its alphabet size on construction.
        for make in (
            lambda: SubstitutionSource({}, 0, 0),
            lambda: ToeplitzSource((0, -1), 0),
            lambda: EventuallyPeriodicSource((), (0,), 0),
            lambda: ExplicitSource((0,), 0),
        ):
            with pytest.raises(ValueError, match="alphabet must have at least one letter"):
                make()


class TestSturmian:
    def test_golden_prefix(self):
        # Fixed point of 0 -> 01, 1 -> 0, checked against direct iteration.
        w = "0"
        for _ in range(8):
            w = "".join("01" if c == "0" else "0" for c in w)
        assert golden_sturmian().prefix(13) == letters("0100101001001")
        assert golden_sturmian().prefix(len(w)) == letters(w)

    def test_p1_is_two(self):
        letters = set(golden_sturmian().prefix(64))
        assert letters == {0, 1}

    def test_cf_2_complexity_at_10(self):
        from groupoid_growth.subshift import build_language

        lang = build_language(SturmianSource([2], cf_periodic=True), n_max=10, prefix_budget=2048)
        assert lang.complexity(10) == 11

    def test_large_term_builds_only_the_letters_asked(self):
        # cf [a] gives s(1) = 0^a 1: a prefix of n <= a letters builds n
        # letters, not the a + 1 of s(1), and a longer one extends it.
        src = SturmianSource([10**8], cf_periodic=True)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="holds fewer than the 6 Sturmian factors of length 5"):
                src.witnesses(5, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert src.prefix(3) == bytes(3)
        assert src.prefix(20_000) == bytes(20_000)

    def test_requires_terms(self):
        with pytest.raises(ValueError, match="terms must be nonempty"):
            SturmianSource([], cf_periodic=False)
        with pytest.raises(ValueError, match="terms must be positive integers"):
            SturmianSource([1, 0, 1], cf_periodic=True)
        with pytest.raises(ValueError, match="supply at least 8 continued-fraction terms"):
            SturmianSource([1, 1, 1], cf_periodic=False)  # too few terms without a periodic tail

    def test_finite_terms_exhaust_loudly(self):
        src = SturmianSource([1] * 8, cf_periodic=False)
        with pytest.raises(ValueError, match="continued-fraction terms exhausted at index"):
            src.prefix(10_000)


class TestSubstitution:
    def test_thue_morse_prefix(self):
        w = "0"
        for _ in range(4):
            w = "".join("01" if c == "0" else "10" for c in w)
        assert w == "0110100110010110"
        assert thue_morse().prefix(16) == letters(w)

    def test_constant(self):
        src = SubstitutionSource({0: (0,)}, 0, 1)
        assert src.prefix(8) == bytes(8)

    def test_fibonacci_prefix(self):
        src = SubstitutionSource({0: (0, 1), 1: (0,)}, 0, 2)
        assert src.prefix(8) == letters("01001010")

    def test_prefix_coherence(self):
        src = thue_morse()
        w = "0"
        for _ in range(10):
            nxt = "".join("01" if c == "0" else "10" for c in w)
            assert nxt.startswith(w)
            w = nxt
        assert src.prefix(64) == letters(w[:64])

    def test_seed_rule_must_start_with_seed(self):
        with pytest.raises(ValueError, match=r"rules\(seed\) must begin with the seed letter"):
            SubstitutionSource({0: (1, 0), 1: (1,)}, 0, 2)


class TestToeplitz:
    def test_all_ones(self):
        src = ToeplitzSource((1, -1), 2)
        assert src.prefix(32) == bytes([1] * 32)

    def test_self_filled_prefix(self):
        src = ToeplitzSource((1, 0, -1, -1), 2)
        # Independent resolution: position p copies the skeleton letter, or
        # redirects through the hole ranks until a letter is hit.
        def resolve(p):
            while True:
                r = p % 4
                if r == 0:
                    return 1
                if r == 1:
                    return 0
                p = (p // 4) * 2 + (r - 2)

        assert list(src.prefix(16)) == [resolve(p) for p in range(16)]

    def test_periodicity(self):
        src = ToeplitzSource((1, 0, -1, -1), 2)
        for n in range(32):
            # After `depth` redirections through the holes, position n reads
            # a skeleton letter, so the letter repeats with period 4^(depth+1).
            pos, depth = n, 0
            while pos % 4 >= 2:
                pos, depth = (pos // 4) * 2 + pos % 4 - 2, depth + 1
            p = 4 ** (depth + 1)
            word = src.prefix(n + 7 * p + 1)
            for k in range(1, 8):
                assert word[n + k * p] == word[n]

    @pytest.mark.parametrize("skeleton", ["0?1?", "0?1?0", "01???", "1?0?0?0?", "0?1", "01?"])
    def test_periods_match_resolution(self, skeleton):
        # Whole periods are written from the letters filling their holes;
        # every prefix must equal the letter-by-letter resolution.
        sk = tuple(-1 if c == "?" else int(c) for c in skeleton)
        src = ToeplitzSource(sk, 2)
        n = 20_000
        ref = bytes(src._resolve(i) for i in range(n))
        for length in [*range(1, 300), 1000, 4097, 8192, 12_345, n]:
            assert ToeplitzSource(sk, 2).prefix(length) == ref[:length]
        # Extend a buffer that stops in the middle of a period.
        q = len(sk)
        for cut in (q * 40 + 1, q * 300 + q - 1, 5002):
            assert cut % q
            src = ToeplitzSource(sk, 2)
            src._buf = bytearray(ref[:cut])
            assert src.prefix(n) == ref

    def test_validation(self):
        with pytest.raises(ValueError, match="skeleton must not start with a hole"):
            ToeplitzSource((-1, 1), 2)  # hole first
        with pytest.raises(ValueError, match="skeleton must contain at least one letter"):
            ToeplitzSource((-1, -1), 2)
        with pytest.raises(ValueError, match="skeleton must contain at least one hole"):
            ToeplitzSource((1, 0), 2)  # no hole


class TestEventuallyPeriodic:
    def test_indexing(self):
        src = EventuallyPeriodicSource((1, 1, 0), (0, 1), 2)
        assert src.prefix(6)[5] == 0
        assert src.prefix(8) == letters("11001010")

    def test_pure_period(self):
        src = EventuallyPeriodicSource((), (1,), 2)
        assert src.prefix(6) == bytes([1] * 6)

    def test_empty_period(self):
        with pytest.raises(ValueError, match="period must be nonempty"):
            EventuallyPeriodicSource((0,), (), 2)


class TestExplicit:
    def test_finite(self):
        src = ExplicitSource((0, 0, 0, 1), 2)
        assert src.prefix(10) == bytes((0, 0, 0, 1))
        assert src.prefix(0) == b""


class TestDeterminism:
    @pytest.mark.parametrize(
        "make",
        [
            golden_sturmian,
            thue_morse,
            lambda: ToeplitzSource((1, 0, -1, -1), 2),
            lambda: EventuallyPeriodicSource((0,), (1, 0), 2),
            lambda: SturmianSource([3, 40, 2], cf_periodic=True, period_start=1),
        ],
    )
    def test_random_query_order(self, make):
        reference = make().prefix(256)
        src = make()
        rng = random.Random(42)
        idx = list(range(256))
        rng.shuffle(idx)
        got = {}
        for i in idx:
            got[i] = src.prefix(i + 1)[i]
        for i in idx:
            assert got[i] == src.prefix(i + 1)[i] == reference[i]


class TestConfig:
    def test_round_trips(self):
        cases = [
            {"kind": "sturmian", "cf": [1, 1], "cf_periodic": True},
            {"kind": "substitution", "rules": {"0": "01", "1": "10"}, "seed": "0"},
            {"kind": "toeplitz", "skeleton": "10??"},
            {"kind": "eventually_periodic", "pre": "0", "period": "10"},
            {"kind": "explicit", "word": "0001"},
        ]
        for cfg in cases:
            src = source_from_config(cfg)
            assert len(src.prefix(4)) == 4

    def test_json(self):
        src = source_from_config(json.loads('{"kind":"sturmian","cf":[1],"cf_periodic":true}'))
        assert src.prefix(5) == letters("01001")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown source kind 'random'"):
            source_from_config({"kind": "random"})
