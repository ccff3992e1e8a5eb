import itertools
import random
from fractions import Fraction

import pytest

from groupoid_growth import selfsimilar
from groupoid_growth.errors import ResourceError
from groupoid_growth.selfsimilar import (
    ADDING_MACHINE,
    GRIGORCHUK,
    SelfSimilarGroup,
    WreathRecursion,
    group_from_spec,
    parse_point,
    recursion_from_config,
)


BASILICA = WreathRecursion(2, {"a": ((0, 1), ("", "b")), "b": ((1, 0), ("", "a"))})

HANOI = WreathRecursion(
    3,
    {
        "a": ((1, 0, 2), ("", "", "a")),
        "b": ((2, 1, 0), ("", "b", "")),
        "c": ((0, 2, 1), ("c", "", "")),
    },
)

# a|_1 = a^-1: a restriction given by a formal inverse.
SELF_INVERSE = recursion_from_config(
    {"alphabet": 2, "generators": {"a": {"perm": [1, 0], "rest": ["", "A"]}}}
)

# Sections longer than the element: b|_0 = a^3 here, b|_1 = ac below.  Some
# restrictions of a ball's elements leave the ball.
LONG_SECTION = WreathRecursion(2, {"a": ((1, 0), ("", "a")), "b": ((0, 1), ("aaa", ""))})
LONG_SECTION_2 = WreathRecursion(2, {"a": ((1, 0), ("", "")), "b": ((0, 1), ("", "ac")), "c": ((0, 1), ("a", "b"))})

# Not contracting: restrictions of a word are words of the same length.
LAMPLIGHTER = WreathRecursion(2, {"a": ((1, 0), ("a", "b")), "b": ((0, 1), ("a", "b"))})


def reference_key(grp, g):
    """Independent equality oracle: Moore refinement of the whole automaton
    reachable from g, then a BFS encoding of the minimized automaton from
    g's block, as a string.  Equal strings iff equal automorphisms."""
    reach, seen, stack = [], set(), [g]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        reach.append(s)
        stack.extend(grp.children[s])
    block = {s: grp.perms[s] for s in reach}
    while True:
        sig = {s: (block[s], tuple(block[grp.children[s][x]] for x in range(grp.d))) for s in reach}
        done = len(set(sig.values())) == len(set(block.values()))
        block = sig
        if done:
            break
    rep = {}
    for s in reach:
        rep.setdefault(block[s], s)
    order, queue, encoded = {block[g]: 0}, [block[g]], []
    for b in queue:
        s = rep[b]
        childblocks = []
        for x in range(grp.d):
            cb = block[grp.children[s][x]]
            if cb not in order:
                order[cb] = len(queue)
                queue.append(cb)
            childblocks.append(order[cb])
        encoded.append((grp.perms[s], tuple(childblocks)))
    return repr(encoded)


def oracle_classes(rec, words) -> list[int]:
    """Independent equality oracle on words over generator names, built
    from the recursion alone: the free automaton whose states are freely
    reduced words, with a word's sections read off the rest words, is
    Moore-minimized.  The block of each word: equal blocks iff the words
    are the same automorphism."""

    def reduce(word):
        out = []
        for ch in word:
            if out and out[-1] == ch.swapcase():
                out.pop()
            else:
                out.append(ch)
        return "".join(out)

    def step(word, x):  # (image of x, section of the word at x)
        sections = []
        for ch in reversed(word):  # the rightmost letter acts first
            perm, rests = rec.generators[ch.lower()]
            if ch.islower():
                x, section = perm[x], rests[x]
            else:
                x = perm.index(x)
                section = rests[x][::-1].swapcase()
            sections.append(section)
        return x, reduce("".join(reversed(sections)))

    states = list(dict.fromkeys(map(reduce, words)))
    index = {w: i for i, w in enumerate(states)}
    perms, kids = [], []
    for w in states:  # grows while sections are found
        image, sections = zip(*(step(w, x) for x in range(rec.alphabet_size)))
        for c in sections:
            if c not in index:
                index[c] = len(states)
                states.append(c)
        perms.append(image)
        kids.append([index[c] for c in sections])
    labels = moore_blocks(perms, kids)
    return [labels[index[reduce(w)]] for w in words]


@pytest.fixture(scope="module")
def adding():
    return SelfSimilarGroup(ADDING_MACHINE)


@pytest.fixture(scope="module")
def grig():
    return SelfSimilarGroup(GRIGORCHUK)


class TestAction:
    def test_adding_machine_rules(self, adding):
        a = adding.gens["a"]
        assert adding.act(a, (0, 0)) == (1, 0)
        assert adding.act(a, (1, 1)) == (0, 0)

    def test_identity_acts_trivially(self, adding):
        assert adding.act(adding.identity, (0, 1, 0)) == (0, 1, 0)

    def test_letter_validation(self, adding):
        with pytest.raises(ValueError):
            adding.act(adding.gens["a"], (2,))

    def test_composition(self, grig):
        rng = random.Random(0)
        gens = list(grig.gens.values())
        for _ in range(50):
            g = grig.word_id("".join(rng.choice("abcd") for _ in range(4)))
            h = grig.word_id("".join(rng.choice("abcd") for _ in range(4)))
            v = tuple(rng.randint(0, 1) for _ in range(6))
            assert grig.act(grig.multiply(g, h), v) == grig.act(g, grig.act(h, v))


class TestRestriction:
    def test_grig_rules(self, grig):
        b, c, a = grig.gens["b"], grig.gens["c"], grig.gens["a"]
        assert grig.restriction(b, (0,)) == a
        assert grig.restriction(b, (1,)) == c

    def test_empty_word(self, grig):
        g = grig.word_id("ab")
        assert grig.restriction(g, ()) == g

    def test_cocycle(self, grig):
        rng = random.Random(1)
        for _ in range(30):
            g = grig.word_id("".join(rng.choice("abcd") for _ in range(5)))
            u = tuple(rng.randint(0, 1) for _ in range(3))
            v = tuple(rng.randint(0, 1) for _ in range(3))
            whole, stepwise = grig.restriction(g, u + v), grig.restriction(grig.restriction(g, u), v)
            assert whole == stepwise


class TestGroupOperations:
    def test_a_involution(self, grig):
        a = grig.gens["a"]
        assert grig.multiply(a, a) == grig.identity

    def test_bcd_relation(self, grig):
        b, c, d = grig.gens["b"], grig.gens["c"], grig.gens["d"]
        assert grig.multiply(b, grig.multiply(c, d)) == grig.identity
        assert grig.multiply(b, c) == d

    def test_adding_machine_infinite_order(self, adding):
        a = adding.gens["a"]
        g = a
        for _ in range(5):
            g = adding.multiply(g, a)
            assert g != adding.identity

    def test_inverse(self, adding, grig):
        assert adding.inverse(adding.identity) == adding.identity
        a = adding.gens["a"]
        assert adding.multiply(a, adding.inverse(a)) == adding.identity
        g = grig.word_id("abab")
        assert grig.multiply(g, grig.inverse(g)) == grig.identity

    def test_interning_merges_equal_elements(self, grig):
        b, c, d = grig.gens["b"], grig.gens["c"], grig.gens["d"]
        assert grig.multiply(b, c) == d


SIX_RECURSIONS = pytest.mark.parametrize(
    "rec, count, max_len",
    [
        (GRIGORCHUK, 500, 8),
        (ADDING_MACHINE, 500, 8),
        (BASILICA, 500, 8),
        (HANOI, 500, 8),
        (SELF_INVERSE, 500, 8),
        (LAMPLIGHTER, 200, 6),
    ],
    ids=["grigorchuk", "adding_machine", "basilica", "hanoi", "self_inverse", "lamplighter"],
)


def every_generator_ball(grp, radius):
    """Ball by the plain search, every element times every generator and
    inverse: id -> word length."""
    lengths = {grp.identity: 0}
    frontier = [grp.identity]
    gens = grp.generator_states()
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                k = grp.multiply(s, g)
                if k not in lengths:
                    lengths[k] = r
                    nxt.append(k)
        frontier = nxt
    return lengths


def random_word(rng, letters, max_len):
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def same_partition(xs, ys) -> bool:
    """Whether two labelings of one list split it into the same classes."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


def moore_blocks(perms, kids) -> list[int]:
    """Moore refinement of an automaton given by per-state permutations and
    child indices: the block of each state, numbered by first appearance."""

    def relabel(signatures):
        ids = {}
        return [ids.setdefault(sig, len(ids)) for sig in signatures]

    labels = relabel(perms)
    while (refined := relabel((labels[i], *(labels[j] for j in ks)) for i, ks in enumerate(kids))) != labels:
        labels = refined
    return labels


class TestCanonicalIds:
    @SIX_RECURSIONS
    def test_same_classes_as_reference(self, rec, count, max_len):
        grp = SelfSimilarGroup(rec)
        letters = grp.gen_names + [n.upper() for n in grp.gen_names]
        rng = random.Random(3)
        ids = [grp.word_id(random_word(rng, letters, max_len)) for _ in range(count)]
        refs = [reference_key(grp, g) for g in ids]
        assert all(isinstance(k, int) for k in ids)
        assert same_partition(ids, refs)
        assert len(set(ids)) > 1

    @SIX_RECURSIONS
    def test_product_matches_oracle(self, rec, count, max_len):
        # Products of two words, the left one sometimes an earlier product,
        # the right one sometimes given by its inverse, in one group in
        # seeded order: the ids split them into the oracle's classes.
        grp = SelfSimilarGroup(rec)
        letters = grp.gen_names + [n.upper() for n in grp.gen_names]
        rng = random.Random(4)
        pool, words, ids = [], [], []  # pool: (word, id) of products of two words
        for _ in range(count):
            u, v = random_word(rng, letters, max_len), random_word(rng, letters, max_len)
            from_pool = pool and rng.random() < 0.4
            if from_pool:
                u, g = rng.choice(pool)
            else:
                g = grp.word_id(u)
            h = grp.word_id(v)
            if rng.random() < 0.3:
                v, h = v[::-1].swapcase(), grp.inverse(h)
            words.append(u + v)
            ids.append(grp.multiply(g, h))
            if not from_pool:
                pool.append((words[-1], ids[-1]))
        assert same_partition(ids, oracle_classes(rec, words))

    @SIX_RECURSIONS
    def test_every_state_is_its_own_class(self, rec, count, max_len):
        # After words, products, inverses and a ball, Moore refinement over
        # the whole store splits every state: no two states are one element.
        # A word times its inverse word multiplies two ids not recorded as
        # inverses; on Lamplighter their sections are a cycle of such pairs
        # that never reaches the identity's state.
        grp = SelfSimilarGroup(rec)
        letters = grp.gen_names + [n.upper() for n in grp.gen_names]
        rng = random.Random(5)
        words = [random_word(rng, letters, max_len) for _ in range(count)]
        ids = [grp.word_id(w) for w in words]
        for w, g, h in zip(words, ids, reversed(ids)):
            grp.multiply(g, grp.inverse(h))
            assert grp.multiply(g, grp.word_id(w[::-1].swapcase())) == grp.identity
        grp.ball(4)
        assert len(set(moore_blocks(grp.perms, grp.children))) == len(grp.perms)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_product_past_depth_cap(self, monkeypatch, depth):
        # Past the depth cap a product goes to canonical_key: the ids split
        # the products as in a group at the default depth.
        rng = random.Random(depth)
        pairs = [(random_word(rng, "abAB", 12), random_word(rng, "abAB", 12)) for _ in range(100)]
        ref = SelfSimilarGroup(BASILICA)
        expected = [ref.multiply(ref.word_id(u), ref.word_id(v)) for u, v in pairs]
        monkeypatch.setattr(selfsimilar, "_PRODUCT_DEPTH", depth)
        grp = SelfSimilarGroup(BASILICA)
        assert same_partition([grp.multiply(grp.word_id(u), grp.word_id(v)) for u, v in pairs], expected)

    @pytest.mark.parametrize("rec", [GRIGORCHUK, BASILICA], ids=["grigorchuk", "basilica"])
    def test_long_words(self, rec):
        # word_id folds multiply: a 3,000-letter word needs no deep recursion.
        grp = SelfSimilarGroup(rec)
        letters = grp.gen_names + [n.upper() for n in grp.gen_names]
        rng = random.Random(6)
        word = "".join(rng.choice(letters) for _ in range(3000))
        inverse = word[::-1].swapcase()
        k = grp.word_id(word)
        assert grp.word_id(word + inverse) == grp.identity
        assert grp.multiply(k, grp.word_id(inverse)) == grp.identity
        for v in itertools.product(range(2), repeat=4):
            image = v
            for ch in reversed(word):  # the rightmost letter acts first
                g = grp.gens[ch.lower()]
                image = grp.act(grp.inverse(g) if ch.isupper() else g, image)
            assert grp.act(k, v) == image

    @pytest.mark.parametrize(
        "rec, radius",
        [(GRIGORCHUK, 8), (ADDING_MACHINE, 8), (BASILICA, 6), (HANOI, 5), (LAMPLIGHTER, 4)],
        ids=["grigorchuk", "adding_machine", "basilica", "hanoi", "lamplighter"],
    )
    @pytest.mark.parametrize("ball_first", [True, False], ids=["ball_first", "lazy_first"])
    def test_ball_matches_lazy_builder(self, rec, radius, ball_first):
        # Against the every-generator ball, built before or after it in one group.
        grp = SelfSimilarGroup(rec)
        if ball_first:
            ball = grp.ball(radius)
            lengths = every_generator_ball(grp, radius)
        else:
            lengths = every_generator_ball(grp, radius)
            ball = grp.ball(radius)
        assert ball == lengths

    @pytest.mark.parametrize("seed", range(10))
    def test_ball_matches_lazy_builder_on_random_recursions(self, seed):
        # Reduced-word search against the every-generator ball, on 2 or 3
        # letters, 2 or 3 generators (a permutes cyclically) whose
        # restrictions are generators, on odd seeds also inverses: same
        # elements, same lengths, same order.
        rng = random.Random(seed)
        d, names = rng.choice((2, 3)), "abc"[: rng.randint(2, 3)]
        letters = ["", *names, *(names.upper() if seed % 2 else "")]
        rec = WreathRecursion(
            d,
            {
                n: ((*range(1, d), 0) if n == "a" else tuple(rng.sample(range(d), d)), tuple(rng.choices(letters, k=d)))
                for n in names
            },
        )
        grp = SelfSimilarGroup(rec)
        radius = 4 if len(names) == 3 else 5
        ball = grp.ball(radius)
        assert list(ball.items()) == list(every_generator_ball(grp, radius).items())

    def test_ball_work_count(self):
        # Grigorchuk's radius-12 ball: every word tries all 4 generators
        # (3,996 products); reduced words try 1,760.  Every state made is an
        # element of the ball.
        grp = SelfSimilarGroup(GRIGORCHUK)
        calls = [0]
        multiply = grp.multiply

        def counted(g, h):
            calls[0] += 1
            return multiply(g, h)

        grp.multiply = counted
        assert len(grp.ball(12)) == 1487
        assert len(grp.perms) == 1487
        assert calls[0] <= 1760


def closed_under_restriction(grp: SelfSimilarGroup, nuc: frozenset[int]) -> bool:
    """Every restriction of a nucleus state is again a nucleus state."""
    return all(c in nuc for s in nuc for c in grp.children[s])


class TestNucleus:
    def test_adding_machine(self, adding):
        nuc = adding.nucleus()
        assert len(nuc) == 3
        assert nuc == {adding.identity, adding.gens["a"], adding.inverse(adding.gens["a"])}
        assert closed_under_restriction(adding, nuc)

    def test_grigorchuk(self, grig):
        nuc = grig.nucleus()
        assert len(nuc) == 5
        for name in "abcd":
            assert grig.gens[name] in nuc
        assert grig.identity in nuc
        assert closed_under_restriction(grig, nuc)

    def test_basilica(self):
        grp = SelfSimilarGroup(BASILICA)
        nuc = grp.nucleus()
        assert len(nuc) == 7
        assert closed_under_restriction(grp, nuc)

    def test_hanoi(self):
        grp = SelfSimilarGroup(HANOI)
        nuc = grp.nucleus()
        assert len(nuc) == 4
        assert grp.identity in nuc
        assert all(g in nuc for g in grp.gens.values())

    def test_not_contracting(self):
        with pytest.raises(ResourceError, match="not contracting"):
            SelfSimilarGroup(LAMPLIGHTER).nucleus()

    def test_trivial_group(self):
        rec = WreathRecursion(2, {"e": ((0, 1), ("", ""))})
        grp = SelfSimilarGroup(rec)
        nuc = grp.nucleus()
        assert len(nuc) == 1

    def test_cap(self, grig):
        with pytest.raises(ResourceError, match="restriction closure exceeded cap 2: not contracting within cap"):
            grig.nucleus(cap=2)


def fraction_loop(grp, length_cap, depth_cap):
    """(ratio, depth) of the contraction estimate, by a set of restriction ids
    per band element and one Fraction per element."""
    lengths = grp.ball(length_cap)
    band = [(l, g) for g, l in lengths.items() if (length_cap + 1) // 2 <= l]
    levels = [{g} for _, g in band]
    best = None
    for depth in range(1, depth_cap + 1):
        worst = Fraction(0)
        for i, (l, _) in enumerate(band):
            levels[i] = {c for s in levels[i] for c in grp.children[s]}
            worst = max(worst, *(Fraction(lengths.get(k, l + 1), l) for k in levels[i]))
        if best is None or worst < best[0]:
            best = (worst, depth)
    return best


class TestContraction:
    def test_adding_machine(self, adding):
        est = adding.contraction_estimate(length_cap=16)
        assert 0 < est.ratio <= 0.6

    def test_grigorchuk(self, grig):
        est = grig.contraction_estimate(length_cap=16)
        assert 0 < est.ratio <= 0.6

    def test_identity_only(self):
        rec = WreathRecursion(2, {"e": ((0, 1), ("", ""))})
        grp = SelfSimilarGroup(rec)
        est = grp.contraction_estimate(length_cap=4)
        assert est.ratio == 0

    @pytest.mark.parametrize(
        "rec", [GRIGORCHUK, ADDING_MACHINE, BASILICA, HANOI], ids=["grig", "adding", "basilica", "hanoi"]
    )
    @pytest.mark.parametrize("length_cap, depth_cap", [(2, 2), (4, 5), (6, 3), (7, 4)])
    def test_matches_fraction_loop(self, rec, length_cap, depth_cap):
        # The worst ratio per depth, found with one Fraction per element.
        grp = SelfSimilarGroup(rec)
        best_ratio, best_depth = fraction_loop(grp, length_cap, depth_cap)
        est = grp.contraction_estimate(length_cap=length_cap, depth_cap=depth_cap)
        assert (est.ratio, est.depth) == (best_ratio, best_depth)

    @pytest.mark.parametrize("length_cap, ratio", [(12, Fraction(1, 6)), (16, Fraction(1, 8))])
    def test_grigorchuk_pinned(self, length_cap, ratio):
        est = SelfSimilarGroup(GRIGORCHUK).contraction_estimate(length_cap=length_cap, depth_cap=6)
        assert (est.ratio, est.depth) == (ratio, 4)

    @pytest.mark.parametrize(
        "rec, length_cap, depth_cap",
        [(LONG_SECTION, c, d) for c, d in ((2, 2), (4, 5), (6, 3), (7, 4), (10, 6))]
        + [(LONG_SECTION_2, c, d) for c, d in ((2, 2), (3, 2), (4, 5), (5, 3))],
    )
    def test_restrictions_outside_the_ball(self, rec, length_cap, depth_cap):
        # The estimate runs on a fresh group, the loop on another, so neither
        # sees the states and ids the other built.
        est = SelfSimilarGroup(rec).contraction_estimate(length_cap=length_cap, depth_cap=depth_cap)
        assert (est.ratio, est.depth) == fraction_loop(SelfSimilarGroup(rec), length_cap, depth_cap)


class TestGerms:
    def test_identity_germ(self, grig):
        assert grig.germ_is_unit(grig.identity, ((), (0, 1)))

    def test_d_at_zero(self, grig):
        assert grig.germ_is_unit(grig.gens["d"], ((), (0,)))

    def test_b_at_one(self, grig):
        assert not grig.germ_is_unit(grig.gens["b"], ((), (1,)))

    def test_point_outside_alphabet(self, grig):
        for g in (grig.word_id("ab"), grig.identity):
            with pytest.raises(ValueError):
                grig.germ_is_unit(g, ((), (2,)))

    def test_moved_letter(self, grig):
        assert not grig.germ_is_unit(grig.gens["a"], ((), (0,)))

    def test_equivalence_relation(self, grig):
        point = ((0,), (1,))
        elems = [grig.word_id(w) for w in ("", "a", "b", "ab", "ba", "d", "bc")]

        def related(g, h):
            return grig.germ_is_unit(grig.multiply(grig.inverse(g), h), point)

        for g in elems:
            assert related(g, g)
        for g in elems:
            for h in elems:
                assert related(g, h) == related(h, g)
        for g in elems:
            for h in elems:
                for k in elems:
                    if related(g, h) and related(h, k):
                        assert related(g, k)

    @pytest.mark.parametrize(
        "head, tail, normal",
        [
            ([0, 1, 0, 1], [0, 1], ((), (0, 1))),
            ([1], [0, 1, 0, 1], ((), (1, 0))),
            ([0], [1, 0], ((), (0, 1))),
            ([], [1, 1, 1], ((), (1,))),
            ([1, 0, 0], [0, 0], ((1,), (0,))),
            ([0, 1], [1, 0, 1, 0], ((0, 1), (1, 0))),
            ([1, 0, 1, 2], [0, 1, 2], ((1,), (0, 1, 2))),
            ([2, 0, 1, 2], [0, 1, 2], ((), (2, 0, 1))),
        ],
    )
    def test_eventually_periodic_normal_form(self, head, tail, normal):
        assert selfsimilar._eventually_periodic(head, tail) == normal

    def test_germ_keys(self, grig):
        def point(text):
            return parse_point(text, 2)

        # The image 0(10)^inf is (01)^inf.
        assert grig.germ_key(grig.identity, point("0|10")) == ((), (0, 1), grig.identity)
        assert grig.germ_key(grig.gens["a"], point("|0")) == ((1,), (0,), grig.identity)
        assert grig.germ_key(grig.gens["b"], point("0|1")) == ((0, 0), (1,), grig.identity)
        # Along 1^inf the sections of b cycle b, c, d from time 0; those of
        # adab, which has the section c at 1, enter that cycle one step
        # later.  The walks meet, so the keys agree: both hold b at time 0 of
        # the cycle length 3.
        b = grig.gens["b"]
        assert grig.germ_key(grig.gens["b"], point("|1")) == ((), (1,), b)
        assert grig.germ_key(grig.word_id("adab"), point("|1")) == ((), (1,), b)

    @pytest.mark.parametrize("pre, per", [((), (2,)), ((0, 1), (0, 2)), ((2, 0), (1,)), ((0,), (-1,))])
    def test_germ_key_letter_outside_alphabet(self, grig, pre, per):
        # The binary tree's letters are 0 and 1: a letter equal to d = 2,
        # in the preperiod or the period, or a negative one, is refused.
        with pytest.raises(ValueError, match="outside the alphabet of size 2"):
            grig.germ_key(grig.identity, (pre, per))

    @pytest.mark.parametrize("pre", [(), (0, 1)], ids=["no-preperiod", "preperiod-01"])
    def test_germ_key_empty_period(self, grig, pre):
        # A point is a plain tuple, so germ_key itself refuses an empty
        # period, which has no phase to walk.
        with pytest.raises(ValueError, match="period must be nonempty"):
            grig.germ_key(grig.identity, (pre, ()))

    def test_point_parsing(self):
        assert parse_point("0|10", 2) == ((0,), (1, 0))
        with pytest.raises(ValueError, match="syntax"):
            parse_point("010", 2)
        for text in ("0|12", "|x", "2|0"):
            with pytest.raises(ValueError, match="outside the alphabet of size 2") as e:
                parse_point(text, 2)
            assert f"point {text!r}" in str(e.value)


class TestRecursionParsing:
    def test_from_json(self):
        cfg = {
            "alphabet": 2,
            "generators": {
                "a": {"perm": [1, 0], "rest": ["", ""]},
                "b": {"perm": [0, 1], "rest": ["a", "c"]},
                "c": {"perm": [0, 1], "rest": ["a", "d"]},
                "d": {"perm": [0, 1], "rest": ["", "b"]},
            },
        }
        grp = group_from_spec(cfg)
        ref = SelfSimilarGroup(GRIGORCHUK)
        words = list(itertools.product(range(2), repeat=6))
        for w in ("ab", "bc", "abab", "dcb"):
            g, h = grp.word_id(w), ref.word_id(w)
            assert [grp.act(g, v) for v in words] == [ref.act(h, v) for v in words]

    def test_formal_inverse_in_restriction(self):
        # b is defined by an uppercase (formal inverse) restriction and must
        # come out equal to the inverse of the odometer a.
        rec = recursion_from_config(
            {
                "alphabet": 2,
                "generators": {
                    "a": {"perm": [1, 0], "rest": ["", "a"]},
                    "b": {"perm": [1, 0], "rest": ["A", ""]},
                },
            }
        )
        grp = SelfSimilarGroup(rec)
        assert grp.gens["b"] == grp.inverse(grp.gens["a"])
        assert grp.multiply(grp.gens["a"], grp.gens["b"]) == grp.identity

    def test_self_referential_inverse_restriction(self):
        # a|_1 = a^-1: well defined and an involution composed with itself sanely.
        rec = recursion_from_config(
            {"alphabet": 2, "generators": {"a": {"perm": [1, 0], "rest": ["", "A"]}}}
        )
        grp = SelfSimilarGroup(rec)
        a = grp.gens["a"]
        assert grp.children[a][1] == grp.inverse(a)
        assert grp.multiply(a, grp.inverse(a)) == grp.identity

    def test_validation(self):
        with pytest.raises(ValueError):
            WreathRecursion(2, {"a": ((1, 1), ("", ""))})
        with pytest.raises(ValueError):
            WreathRecursion(2, {"a": ((1, 0), ("",))})
        with pytest.raises(ValueError):
            WreathRecursion(2, {"a": ((1, 0), ("z", ""))})

    @pytest.mark.parametrize("d", [0, 1])
    def test_fewer_than_two_letters_rejected(self, d):
        # On one letter every level has one column, so nothing bounds the
        # depth of a level image.
        with pytest.raises(ValueError, match="at least 2 letters"):
            WreathRecursion(d, {"a": (tuple(range(d)), ("a",) * d)})


class TestCaps:
    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(selfsimilar, "STATE_CAP", 4)
        grp = SelfSimilarGroup(ADDING_MACHINE)
        a = grp.gens["a"]
        with pytest.raises(ResourceError, match="automaton state cap"):
            g = a
            for _ in range(100):
                g = grp.multiply(g, a)

    def test_growing_rest_words_hit_the_cap(self, monkeypatch):
        # a|_0 = ab and b|_0 = ba: the sections of a generator are ever longer
        # words, and the letters of the words interned count against the cap.
        monkeypatch.setattr(selfsimilar, "STATE_CAP", 20_000)
        with pytest.raises(ResourceError, match="automaton state cap"):
            SelfSimilarGroup(WreathRecursion(2, {"a": ((1, 0), ("ab", "b")), "b": ((0, 1), ("ba", "a"))}))
