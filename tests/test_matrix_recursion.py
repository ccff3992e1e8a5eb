import random

import pytest

from groupoid_growth import matrix_recursion as mr
from groupoid_growth.errors import ResourceError
from groupoid_growth.fields import GF2, QQ, Field, new_basis, reduced
from groupoid_growth.matrix_recursion import (
    ThinnedGrowthResult,
    element_name,
    element_of_terms,
    format_element,
    format_matrix,
    grig_witness,
    homomorphism_check,
    image_at_level,
    loglog_slope,
    matrix_product,
    matrix_sum,
    parse_element,
    ring_product,
    ring_sum,
    step_is_injective,
    thinned_dims_at_level,
    thinned_growth,
)
from groupoid_growth.selfsimilar import (
    ADDING_MACHINE,
    GRIGORCHUK,
    SelfSimilarGroup,
    WreathRecursion,
)


def identity_matrix(group, level: int) -> dict:
    return {(i, i): {group.identity: 1} for i in range(group.d**level)}


def level0(elem: dict) -> dict:
    return {(0, 0): elem} if elem else {}


def recursion_step(group, m: dict, field) -> dict:
    """Reference for image_at_level, one level at a time: entry g at (u, v)
    contributes g|_x at (u.g(x), v.x) for every letter x, same coefficient."""
    d = group.d
    out: dict = {}
    for (u, v), elem in m.items():
        for g, c in elem.items():
            for x in range(d):
                cell = out.setdefault((u * d + group.perms[g][x], v * d + x), {})
                child = group.children[g][x]
                cell[child] = cell.get(child, 0) + c
    return {rc: e for rc, cs in out.items() if (e := reduced(cs, field.characteristic))}


F3 = Field(3)

BASILICA = WreathRecursion(2, {"a": ((0, 1), ("", "b")), "b": ((1, 0), ("", "a"))})

HANOI = WreathRecursion(
    3,
    {
        "a": ((1, 0, 2), ("", "", "a")),
        "b": ((2, 1, 0), ("", "b", "")),
        "c": ((0, 2, 1), ("c", "", "")),
    },
)


@pytest.fixture(scope="module")
def adding():
    return SelfSimilarGroup(ADDING_MACHINE)


@pytest.fixture(scope="module")
def grig():
    return SelfSimilarGroup(GRIGORCHUK)


class TestGroupRing:
    def test_coefficients_merge_by_equality(self, grig):
        # b*c and d are the same group element, so the coefficients add.
        assert parse_element(grig, "bc+d", GF2) == {}

    def test_parse_constants(self, grig):
        e = parse_element(grig, "2*a+1", QQ)
        assert sorted(map(str, e.values())) == ["1", "2"]
        with pytest.raises(ValueError):
            parse_element(grig, "a++b", QQ)

    @pytest.mark.parametrize("text", ["2*", "a+3*", "2*+b"])
    def test_parse_rejects_an_empty_word(self, grig, text):
        # '2*' is not 2*1: the word after '*' must be given.
        with pytest.raises(ValueError, match="empty word"):
            parse_element(grig, text, QQ)

    def test_rational_coefficients_are_ints(self, grig):
        e = parse_element(grig, "2*ab+3*b+1", QQ)
        assert all(type(c) is int for c in ring_product(grig, e, e, QQ).values())

    def test_mul_convolves(self, grig):
        a = parse_element(grig, "a", GF2)
        assert ring_product(grig, a, a, GF2) == parse_element(grig, "1", GF2)

    def test_format(self, grig):
        assert format_element(grig, parse_element(grig, "d+c+b+1", GF2)) == "1+b+c+d"
        assert format_element(grig, parse_element(grig, "bc+d", GF2)) == "0"


def assert_reduced(elem: dict, field: Field) -> None:
    """Every scalar is a nonzero int, in [1, p) over F_p."""
    p = field.characteristic
    assert all(type(c) is int and c and (not p or 0 < c < p) for c in elem.values()), elem


def assert_reduced_matrix(m: dict, field: Field) -> None:
    for entry in m.values():
        assert entry, m
        assert_reduced(entry, field)


class TestReducedForm:
    """Every function that returns an element or a level matrix returns it
    reduced: no zero scalar, no residue outside [1, p), no empty entry."""

    # Each field's list holds terms that cancel or reduce in it.
    TEXTS = {
        GF2: ["bc+d", "a+b", "b+c+d+1", "3*ab+2*c+1"],
        F3: ["a+2*a", "3*a+2*b+c+1", "4*b+5*d+1", "ab+2*ba+c"],
        QQ: ["2*b+-2*b", "a+-1*b", "a+b", "2*ab+3*b+1"],
    }

    @pytest.mark.parametrize("field", [GF2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_every_producer(self, grig, field):
        elems = [parse_element(grig, text, field) for text in self.TEXTS[field]]
        elems.append(element_of_terms(grig, field, (("bc", 3), ("d", 3), ("a", 4), ("", -1))))
        assert {} in elems
        for e in elems:
            assert_reduced(e, field)
        for x in elems:
            for y in elems:
                assert_reduced(ring_sum(x, y, field), field)
                assert_reduced(ring_product(grig, x, y, field), field)
        for level in (1, 2):
            images = [image_at_level(grig, e, level, field) for e in elems]
            for m in images:
                assert_reduced_matrix(m, field)
            for x in images:
                for y in images:
                    assert_reduced_matrix(matrix_sum(x, y, field), field)
                    assert_reduced_matrix(matrix_product(grig, x, y, field), field)

    def test_cancellations_over_f2(self, grig):
        ab = parse_element(grig, "a+b", GF2)
        # aa = bb = 1, so (a+b)(a+b) = 1+ab+ba+1 = ab+ba over F2.
        assert ring_product(grig, ab, ab, GF2) == parse_element(grig, "ab+ba", GF2)
        assert len(ring_product(grig, ab, ab, GF2)) == 2
        assert ring_sum(ab, ab, GF2) == {}
        # The sections of b, c, d, 1 at letter 0 are a, a, 1, 1, so the
        # level-1 cell (0, 0) is a+a+1+1 = 0.
        elem = parse_element(grig, "b+c+d+1", GF2)
        m = image_at_level(grig, elem, 1, GF2)
        assert set(m) == {(1, 1)}
        assert matrix_sum(m, m, GF2) == {}
        square = ring_product(grig, elem, elem, GF2)
        assert matrix_product(grig, m, m, GF2) == image_at_level(grig, square, 1, GF2)

    def test_cancellations_over_q_and_f3(self, grig):
        assert parse_element(grig, "2*b+-2*b", QQ) == {}
        assert parse_element(grig, "a+2*a", F3) == {}
        x, y = parse_element(grig, "a+b", QQ), parse_element(grig, "a+-1*b", QQ)
        # (a+b)(a-b) = 1-ab+ba-1 = ba-ab.
        assert ring_product(grig, x, y, QQ) == parse_element(grig, "ba+-1*ab", QQ)
        two_a = parse_element(grig, "2*a", QQ)
        assert image_at_level(grig, ring_sum(x, y, QQ), 2, QQ) == image_at_level(grig, two_a, 2, QQ)


class TestLevelMatrices:
    def test_adding_machine_level1(self, adding):
        a = parse_element(adding, "a", QQ)
        one = parse_element(adding, "1", QQ)
        assert image_at_level(adding, a, 1, QQ) == {(0, 1): a, (1, 0): one}

    def test_adding_machine_level2(self, adding):
        a = parse_element(adding, "a", QQ)
        one = parse_element(adding, "1", QQ)
        m = image_at_level(adding, a, 2, QQ)
        assert m == {(0, 3): a, (1, 2): one, (2, 0): one, (3, 1): one}

    def test_identity_maps_to_identity(self, grig):
        one = parse_element(grig, "1", QQ)
        for level in (1, 2, 3):
            assert image_at_level(grig, one, level, QQ) == identity_matrix(grig, level)

    def test_recursion_of_relation(self, grig):
        # bc = d must persist through the recursion.
        for level in (1, 2, 3):
            b, c, d = (image_at_level(grig, parse_element(grig, w, QQ), level, QQ) for w in "bcd")
            assert matrix_product(grig, b, c, QQ) == d

    def test_step_increments_level(self, adding):
        # One step from level 0 is the level-1 image, inside 2x2.
        a = parse_element(adding, "a", QQ)
        m1 = recursion_step(adding, level0(a), QQ)
        assert m1 == image_at_level(adding, a, 1, QQ)
        assert all(r < 2 and c < 2 for r, c in m1)

    def test_format_matrix(self, adding):
        text = format_matrix(adding, image_at_level(adding, parse_element(adding, "a", QQ), 1, QQ), 1)
        assert text.splitlines() == ["[0  a]", "[1  0]"]

    def test_level_caps(self, adding, monkeypatch):
        # 2^3 = 8 columns and 64 cells at level 3; one more level is refused.
        monkeypatch.setattr(mr, "COLUMN_CAP", 8)
        monkeypatch.setattr(mr, "PRINT_CELL_CAP", 64)
        elem = parse_element(adding, "a+1", QQ)
        m = image_at_level(adding, elem, 3, QQ)
        assert len(format_matrix(adding, m, 3).splitlines()) == 8
        with pytest.raises(ResourceError, match="level-4 image on 2 letters exceeds cap 8 on columns"):
            image_at_level(adding, elem, 4, QQ)
        monkeypatch.setattr(mr, "PRINT_CELL_CAP", 63)
        with pytest.raises(ResourceError, match="exceeds cap 63 on cells"):
            format_matrix(adding, m, 3)


class TestWitness:
    def test_diagonal_form(self, grig):
        m = grig_witness(grig)
        assert set(m) == {(1, 1)}
        assert format_element(grig, m[(1, 1)]) == "1+b+c+d"

    def test_second_iteration_nonzero(self, grig):
        # One more recursion step keeps the corner block equal to the element.
        m2 = recursion_step(grig, grig_witness(grig), GF2)
        assert format_element(grig, m2[(3, 3)]) == "1+b+c+d"
        assert all(r == c for (r, c) in m2)

    def test_over_gf2(self, grig):
        # The witness lives in characteristic 2: over Q the zero block of
        # the level-1 image is a+a+1+1 = 2*1+2*a.
        elem = parse_element(grig, "b+c+d+1", QQ)
        assert format_element(grig, image_at_level(grig, elem, 1, QQ)[(0, 0)]) == "2*1+2*a"
        assert grig_witness(grig) == {(1, 1): parse_element(grig, "b+c+d+1", GF2)}


def random_element(group, field, rng: random.Random, max_terms: int, max_len: int) -> dict:
    """A random element of 1 to ``max_terms`` terms, each a word of 0 to
    ``max_len`` generators with a coefficient from 1 to 5."""
    coeffs: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        g = group.word_id("".join(rng.choice(group.gen_names) for _ in range(rng.randint(0, max_len))))
        coeffs[g] = coeffs.get(g, 0) + rng.randint(1, 5)
    return reduced(coeffs, field.characteristic)


class TestImageAtLevel:
    @pytest.mark.parametrize("field", [GF2, QQ, F3], ids=["F2", "Q", "F3"])
    @pytest.mark.parametrize("rec", [GRIGORCHUK, HANOI], ids=["grig", "hanoi"])
    def test_matches_iterated_step(self, rec, field):
        grp = SelfSimilarGroup(rec)
        rng = random.Random(8)
        for _ in range(12):
            elem = random_element(grp, field, rng, max_terms=4, max_len=5)
            m = level0(elem)
            for level in range(1, 5):
                m = recursion_step(grp, m, field)
                assert image_at_level(grp, elem, level, field) == m

    def test_level_zero(self, grig):
        elem = parse_element(grig, "ab+2*c+1", QQ)
        assert image_at_level(grig, elem, 0, QQ) == level0(elem)


class TestLevelSections:
    @pytest.mark.parametrize("rec", [GRIGORCHUK, ADDING_MACHINE, HANOI], ids=["grig", "adding", "hanoi"])
    def test_matches_iterated_step(self, rec):
        # Column col of the level-L image of g holds g|_col at row g(col).
        grp = SelfSimilarGroup(rec)
        rng = random.Random(5)
        letters = "".join(grp.gen_names) + "".join(grp.gen_names).upper()
        for length in range(6):
            g = grp.word_id("".join(rng.choice(letters) for _ in range(length)))
            m = level0({g: 1})
            for level in range(5):
                by_col = {col: (row, e) for (row, col), e in m.items()}
                got = [(row, {e: 1}) for row, e in grp.level_sections(g, level)]
                assert got == [by_col[col] for col in range(grp.d**level)]
                m = recursion_step(grp, m, QQ)

    def test_memoized_by_canonical_id(self, grig):
        # bc = d: two words of one element share the memoized image.
        first = grig.level_sections(grig.word_id("abcab"), 4)
        assert grig.level_sections(grig.word_id("adab"), 4) is first


class TestHomomorphism:
    def test_grig(self, grig):
        assert homomorphism_check(grig, samples=10, level=2, field=GF2, seed=1)[0] is True

    def test_adding(self, adding):
        assert homomorphism_check(adding, samples=10, level=2, field=QQ, seed=2)[0] is True

    def test_hanoi_over_f3(self):
        # Three letters and a field of odd characteristic, which check 10
        # (two letters, F2 and Q) does not reach.
        hanoi = SelfSimilarGroup(HANOI)
        for level in (1, 2):
            assert homomorphism_check(hanoi, samples=10, level=level, field=F3, seed=3)[0] is True

    def test_digest_names_the_samples(self, grig):
        # The digest is of the drawn words and coefficients: it follows the
        # seed, and neither the field nor the level nor a fresh group's ids
        # change it.
        digest = homomorphism_check(grig, samples=5, level=1, field=GF2, seed=1)[1]
        assert homomorphism_check(SelfSimilarGroup(GRIGORCHUK), 5, 2, QQ, seed=1)[1] == digest
        assert homomorphism_check(grig, samples=5, level=1, field=GF2, seed=2)[1] != digest
        assert homomorphism_check(grig, samples=4, level=1, field=GF2, seed=1)[1] != digest

    def test_level_validation(self, grig):
        with pytest.raises(ValueError):
            homomorphism_check(grig, samples=1, level=0, field=GF2, seed=0)


class TestThinnedGrowth:
    def test_trivial_group_constant(self):
        grp = SelfSimilarGroup(WreathRecursion(2, {"e": ((0, 1), ("", ""))}))
        res = thinned_growth(grp, 5, GF2)
        assert [d for _, d in res.dims] == [1] * 5

    def test_grig_first_level(self, grig):
        res = thinned_growth(grig, 4, GF2)
        assert res.dims[0] == (1, 5)  # 1, a, b, c, d independent
        assert res.stabilized

    def test_rank_monotone_in_level(self, grig):
        # Each level's vectors are a linear image of the previous level's,
        # so no rank can rise with the level; at n=12 it strictly falls.
        tables = [thinned_dims_at_level(grig, 12, GF2, level, {}) for level in (1, 2, 3, 4)]
        for prev, dims in zip(tables, tables[1:]):
            assert all(d <= p for (_, d), (_, p) in zip(dims, prev))
        assert [t[-1][1] for t in tables] == [376, 236, 206, 206]

    def test_field_choice(self, grig):
        q = thinned_growth(grig, 6, QQ)
        f2 = thinned_growth(grig, 6, GF2)
        assert [d for _, d in q.dims] == [d for _, d in f2.dims]

    @pytest.mark.parametrize(
        "field, tail",
        [
            (GF2, [240, 276, 314, 354]),
            (Field(3), [248, 284, 322, 362]),
            (QQ, [248, 284, 322, 362]),
        ],
        ids=["F2", "F3", "Q"],
    )
    def test_field_dependence_at_scale(self, grig, field, tail):
        # At n=16 the rank over F2 falls below the rank over F3 and Q.
        res = thinned_growth(grig, 16, field)
        assert [d for _, d in res.dims][-4:] == tail
        assert (res.level, res.stabilized) == (5, True)

    def test_dyadic_tables(self, grig):
        # dim V^(2^k) over F2 for k = 3..6, and over Q at n = 16; the two
        # fields first split at n = 9.
        f2 = dict(thinned_growth(grig, 64, GF2).dims)
        q = dict(thinned_growth(grig, 16, QQ).dims)
        assert [f2[n] for n in (8, 16, 32, 64)] == [96, 354, 1366, 5374]
        assert q[16] == 362
        assert (f2[8], f2[9], q[8], q[9]) == (96, 119, 96, 120)

    @staticmethod
    def second_differences(dims, n_max: int) -> tuple[dict, dict]:
        """a(n) = dim V^n - dim V^(n-1), with dim V^0 = 1, and a(n) - a(n-1)."""
        dim = {0: 1, **dict(dims)}
        a = {n: dim[n] - dim[n - 1] for n in range(1, n_max + 1)}
        return a, {n: a[n] - a[n - 1] for n in range(2, n_max + 1)}

    @pytest.mark.parametrize("field, n_max", [(GF2, 128), (QQ, 64)], ids=["F2", "Q"])
    def test_dyadic_form(self, grig, field, n_max):
        # The observed form of ROADMAP item 16: on each block (2^k, 2^(k+1)]
        # with k >= 2 the second difference is constant on each half over
        # F2 and on each quarter over Q, and a(2^k) = 5*2^(k-1) over both.
        a, delta = self.second_differences(thinned_growth(grig, n_max, field).dims, n_max)
        top = n_max.bit_length() - 1  # n_max = 2^top
        for k in range(2, top):
            block = [delta[n] for n in range(2**k + 1, 2 ** (k + 1) + 1)]
            if field == GF2:
                steps = (3, 2)
            else:
                steps = (4, 3, 1, 2) if k >= 3 else (3, 3, 2, 2)
            part = len(block) // len(steps)
            assert block == [s for s in steps for _ in range(part)], k
        assert [a[2**k] for k in range(2, top + 1)] == [5 * 2 ** (k - 1) for k in range(2, top + 1)]

    def test_quadratic_slope(self, grig):
        res = thinned_growth(grig, 24, GF2)
        slope = loglog_slope(res.dims, 8, 24)
        assert 1.5 <= slope <= 2.5

    def test_slope_needs_points(self):
        with pytest.raises(ValueError):
            loglog_slope([(1, 1)], 1, 1)


class TestElementName:
    def test_generators_and_identity(self, grig):
        assert element_name(grig, grig.identity) == "1"
        assert element_name(grig, grig.gens["a"]) == "a"
        assert element_name(grig, grig.word_id("bc")) == "d"


def two_pass_growth(group, n_max, field, level_start, level_cap):
    """Raise the level until two consecutive passes agree, one pass per level."""
    level = level_start
    prev = thinned_dims_at_level(group, n_max, field, level, {})
    while level < level_cap:
        nxt = thinned_dims_at_level(group, n_max, field, level + 1, {})
        level += 1
        if nxt == prev:
            return ThinnedGrowthResult(dims=nxt, level=level, stabilized=True)
        prev = nxt
    return ThinnedGrowthResult(dims=prev, level=level, stabilized=False)


@pytest.fixture
def level_passes(monkeypatch):
    """Levels of the thinned_dims_at_level passes run while the fixture is live."""
    levels = []
    inner = mr.thinned_dims_at_level

    def counted(group, n_max, field, level, *rest):
        levels.append(level)
        return inner(group, n_max, field, level, *rest)

    monkeypatch.setattr(mr, "thinned_dims_at_level", counted)
    return levels


class TestInjectiveStep:
    @pytest.mark.parametrize("field", [GF2, F3, QQ], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize(
        "rec, sizes",
        [(GRIGORCHUK, (6, 10)), (ADDING_MACHINE, (6, 10)), (BASILICA, (6, 10)), (HANOI, (4, 6))],
        ids=["grig", "adding", "basilica", "hanoi"],
    )
    def test_sound(self, rec, sizes, field):
        # Wherever the step is injective on the level-L cells, the level-(L+1)
        # pass gives the level-L table.
        grp = SelfSimilarGroup(rec)
        for n in sizes:
            for level in (1, 2, 3):
                cells = {}
                dims = thinned_dims_at_level(grp, n, field, level, cells)
                if step_is_injective(grp, field, cells):
                    assert thinned_dims_at_level(grp, n, field, level + 1, {}) == dims

    @pytest.mark.parametrize("field", [GF2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_fails_where_the_table_drops(self, grig, field):
        # At level 1 the recursion map has a kernel on the span of the cells:
        # the n=16 table falls at the next level.
        cells = {}
        dims = thinned_dims_at_level(grig, 16, field, 1, cells)
        assert not step_is_injective(grig, field, cells)
        assert thinned_dims_at_level(grig, 16, field, 2, {})[-1][1] < dims[-1][1]

    def test_rank_is_over_the_run_field(self):
        # Four level-1 images in one cell, (1,1,1), (1,p,q), (p,1,q) and
        # (p,p,1) with trivial permutations, cover each coordinate twice: they
        # sum to zero over F2 but are independent over F3 and Q.
        rec = WreathRecursion(
            3,
            {
                "p": ((1, 2, 0), ("", "", "")),
                "q": ((1, 0, 2), ("", "", "")),
                "s": ((0, 1, 2), ("", "p", "q")),
                "t": ((0, 1, 2), ("p", "", "q")),
                "u": ((0, 1, 2), ("p", "p", "")),
            },
        )
        grp = SelfSimilarGroup(rec)
        entries = [grp.identity] + [grp.gens[name] for name in "stu"]
        cells = {(0, 0, e): i for i, e in enumerate(entries)}
        assert not step_is_injective(grp, GF2, cells)
        assert step_is_injective(grp, F3, cells)
        assert step_is_injective(grp, QQ, cells)

    @pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
    def test_dependent_block_among_copies(self, field):
        # 500 blocks hold the independent entries {1, s}; one holds 1, s, t,
        # u, whose level-1 images (1,1), (1,p), (p,1), (p,p) satisfy
        # 1 - s - t + u = 0.  Wherever that block sits, the step is not injective.
        rec = WreathRecursion(
            2,
            {
                "p": ((1, 0), ("", "")),
                "s": ((0, 1), ("", "p")),
                "t": ((0, 1), ("p", "")),
                "u": ((0, 1), ("p", "p")),
            },
        )
        grp = SelfSimilarGroup(rec)
        one, s, t, u = [grp.identity] + [grp.gens[name] for name in "stu"]
        for hidden in (0, 250, 500):
            blocks = {col: (one, s, t, u) if col == hidden else (one, s) for col in range(501)}
            cells = {(0, col, e): 0 for col, entries in blocks.items() for e in entries}
            assert not step_is_injective(grp, field, cells)
            del cells[(0, hidden, u)]
            assert step_is_injective(grp, field, cells)

    def test_one_test_per_entry_set(self, monkeypatch):
        # The n=32 level-5 F2 cells of the Grigorchuk group: 1,024 blocks
        # of more than one entry, 3 distinct entry sets, 11 inserts.
        grp = SelfSimilarGroup(GRIGORCHUK)
        cells = {}
        thinned_dims_at_level(grp, 32, GF2, 5, cells)
        inserts = [0]

        def counted_basis(field):
            basis = new_basis(field)
            insert = basis.insert

            def counted(support):
                inserts[0] += 1
                return insert(support)

            basis.insert = counted
            return basis

        monkeypatch.setattr(mr, "new_basis", counted_basis)
        assert step_is_injective(grp, GF2, cells)
        assert inserts[0] <= 11

    @pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
    def test_fallback_matches_two_passes(self, grig, field, level_passes, monkeypatch):
        for start in range(1, 6):
            monkeypatch.setattr(mr, "_start_level", lambda group, n_max: start)
            level_passes.clear()
            res = thinned_growth(grig, 10, field)
            assert res == two_pass_growth(grig, 10, field, start, mr.LEVEL_CAP)
            # Levels 1 and 2 have a kernel; from level 3 on one pass suffices.
            assert level_passes == list(range(start, max(start, 3) + 1))
            assert res.level == level_passes[-1] + 1
        monkeypatch.setattr(mr, "_start_level", lambda group, n_max: 1)
        for cap in (1, 2, 3):
            monkeypatch.setattr(mr, "LEVEL_CAP", cap)
            assert thinned_growth(grig, 10, field) == two_pass_growth(grig, 10, field, 1, cap)

    @pytest.mark.parametrize(
        "n, field", [(4, QQ), (6, GF2), (10, GF2), (12, F3), (16, QQ)], ids=["4-Q", "6-F2", "10-F2", "12-F3", "16-Q"]
    )
    def test_default_runs_make_one_pass(self, grig, n, field, level_passes):
        res = thinned_growth(grig, n, field)
        assert len(level_passes) == 1
        assert (res.level, res.stabilized) == (level_passes[0] + 1, True)


def element_pass(group, n_max, field, level, coord_index):
    """The thinned pass run on group elements: each candidate s*h is built as
    a product automaton, deduplicated by canonical id, and vectorized through
    its level-L image."""
    basis = new_basis(field)
    gens = [group.gens[n] for n in group.gen_names]

    def vectorize(rid):
        entries = group.level_sections(rid, level)
        return [coord_index.setdefault((row, col, e), len(coord_index)) for col, (row, e) in enumerate(entries)]

    seen, new = set(), []

    def consider(rid):
        if rid not in seen:
            seen.add(rid)
            if basis.insert(vectorize(rid)):
                new.append(rid)

    for g in [group.identity] + gens:
        consider(g)
    dims = [(1, basis.rank)]
    for n in range(2, n_max + 1):
        frontier, new = new, []
        for h in frontier:
            for s in gens:
                consider(group.multiply(s, h))
        dims.append((n, basis.rank))
    return dims


class TestVectorPass:
    @pytest.mark.parametrize("field", [GF2, F3, QQ], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize(
        "rec, n",
        [(GRIGORCHUK, 12), (ADDING_MACHINE, 12), (BASILICA, 8), (HANOI, 5)],
        ids=["grig", "adding", "basilica", "hanoi"],
    )
    def test_matches_element_pass(self, rec, n, field):
        # Candidates multiplied as level-m vectors give the table and the
        # level-L coordinates, in order, of candidates built as automata.
        # Over F2 the pass maps two levels up from level 3 on: levels 5 and
        # 6 map at levels 3 and 4.
        levels = (1, 2, 3, 4, 5, 6) if (rec, field) == (GRIGORCHUK, GF2) else (1, 2, 3, 4)
        for level in levels:
            grp = SelfSimilarGroup(rec)
            cells, oracle_cells = {}, {}
            dims = thinned_dims_at_level(grp, n, field, level, cells)
            assert dims == element_pass(grp, n, field, level, oracle_cells)
            assert list(cells) == list(oracle_cells)

    def test_coordinate_cap(self, grig, monkeypatch):
        cells: dict = {}
        dims = thinned_dims_at_level(grig, 8, GF2, 2, cells)
        monkeypatch.setattr(mr, "COORDINATE_CAP", len(cells))
        assert thinned_dims_at_level(grig, 8, GF2, 2, {}) == dims
        monkeypatch.setattr(mr, "COORDINATE_CAP", len(cells) - 1)
        monkeypatch.setattr(mr, "_start_level", lambda group, n_max: 2)
        with pytest.raises(ResourceError, match=f"exceeded cap {len(cells) - 1} on coordinates"):
            thinned_growth(grig, 8, GF2)

    def test_rank_coordinate_cap(self):
        # Level 1 is far too shallow for n=64: its basis would reach rank x
        # coordinates ~1e10.  The pass stops before the coordinate cap.
        cells: dict = {}
        with pytest.raises(ResourceError, match="rank x coordinates"):
            thinned_dims_at_level(SelfSimilarGroup(GRIGORCHUK), 64, GF2, 1, cells)
        assert len(cells) < mr.COORDINATE_CAP

    @pytest.mark.parametrize("level", [2, 5])
    def test_chunk_masks_count_against_the_cap(self, grig, level, monkeypatch):
        # The cap is set to the pass's final rank x coordinates, which the
        # rank alone never exceeds.  At level 2 the pass maps at level 2 and
        # keeps no chunk masks, so it finishes; at level 5 it maps at level 3
        # and keeps one chunk mask per level-3 coordinate, which count with
        # the rank, so it stops.
        cells: dict = {}
        dims = thinned_dims_at_level(grig, 16, GF2, level, cells)
        monkeypatch.setattr(mr, "RANK_COORDINATE_CAP", dims[-1][1] * len(cells))
        if mr.mapping_level(GF2, level) == level:
            assert thinned_dims_at_level(grig, 16, GF2, level, {}) == dims
        else:
            with pytest.raises(ResourceError, match="rank x coordinates"):
                thinned_dims_at_level(grig, 16, GF2, level, {})


def unskipped_pass(group, n_max, field, level):
    """The vector pass with every generator applied to every newly
    independent element: its table and the number of candidates it builds.
    An element is its list of level-L cells (row, col, section id)."""
    coords: dict = {}
    basis = new_basis(field)
    gens = [group.gens[n] for n in group.gen_names]

    def cells_of(rid):
        return [(row, col, e) for col, (row, e) in enumerate(group.level_sections(rid, level))]

    def times(s, cells):
        sections = group.level_sections(s, level)
        return [(sections[row][0], col, group.multiply(sections[row][1], e)) for row, col, e in cells]

    seen, new, built = set(), [], 0

    def consider(cells):
        if tuple(cells) not in seen:
            seen.add(tuple(cells))
            if basis.insert([coords.setdefault(cell, len(coords)) for cell in cells]):
                new.append(cells)

    for g in [group.identity] + gens:
        consider(cells_of(g))
    dims = [(1, basis.rank)]
    for n in range(2, n_max + 1):
        frontier, new = new, []
        for h in frontier:
            for s in gens:
                built += 1
                consider(times(s, h))
        dims.append((n, basis.rank))
    return dims, built


class TestKnownProducts:
    @pytest.mark.parametrize("field", [GF2, F3, QQ], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize("rec", [GRIGORCHUK, ADDING_MACHINE], ids=["grig", "adding"])
    def test_matches_every_candidate(self, rec, field, monkeypatch):
        # Skipping s*h for h = t*h' with s*t in {1, generators} leaves the
        # table as it is.  In the Grigorchuk group (aa = bb = 1, bc = d) it
        # skips candidates; in the adding machine a*a is new, so it skips none.
        lookups = []

        class CountedMap(mr._CoordinateMap):
            __slots__ = ()

            def __getitem__(self, c):
                lookups.append(c)
                return super().__getitem__(c)

        monkeypatch.setattr(mr, "_CoordinateMap", CountedMap)
        for level in (1, 2, 3, 4):
            grp = SelfSimilarGroup(rec)
            lookups.clear()
            dims = thinned_dims_at_level(grp, 12, field, level, {})
            expected, every = unskipped_pass(grp, 12, field, level)
            assert dims == expected
            # One lookup per column of the level the pass maps at.
            built = len(lookups) // grp.d ** mr.mapping_level(field, level)
            assert built < every if rec is GRIGORCHUK else built == every
