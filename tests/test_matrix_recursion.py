import pytest

from groupoid_growth.fields import GF2, QQ, PrimeField
from groupoid_growth.matrix_recursion import (
    GroupRingElement,
    IdentityError,
    LevelMatrix,
    element_name,
    format_element,
    format_matrix,
    grig_witness,
    homomorphism_check,
    identity_matrix,
    image_at_level,
    level0,
    loglog_slope,
    parse_element,
    recursion_step,
    thinned_dims_at_level,
    thinned_growth,
)
from groupoid_growth.selfsimilar import (
    ADDING_MACHINE,
    GRIGORCHUK,
    SelfSimilarGroup,
    WreathRecursion,
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
        e = parse_element(grig, "bc+d", GF2)
        assert e.is_zero()

    def test_parse_constants(self, grig):
        e = parse_element(grig, "2*a+1", QQ)
        assert sorted(map(str, e.coeffs.values())) == ["1", "2"]
        with pytest.raises(ValueError):
            parse_element(grig, "a++b", QQ)

    def test_mul_convolves(self, grig):
        a = parse_element(grig, "a", GF2)
        assert a.mul(a) == parse_element(grig, "1", GF2)

    def test_format(self, grig):
        assert format_element(parse_element(grig, "d+c+b+1", GF2)) == "1+b+c+d"
        assert format_element(parse_element(grig, "bc+d", GF2)) == "0"


class TestLevelMatrices:
    def test_adding_machine_level1(self, adding):
        a = parse_element(adding, "a", QQ)
        one = parse_element(adding, "1", QQ)
        m = image_at_level(a, 1)
        assert m.entries == {(0, 1): a, (1, 0): one}

    def test_adding_machine_level2(self, adding):
        a = parse_element(adding, "a", QQ)
        one = parse_element(adding, "1", QQ)
        m = image_at_level(a, 2)
        assert m.entries == {(0, 3): a, (1, 2): one, (2, 0): one, (3, 1): one}

    def test_identity_maps_to_identity(self, grig):
        one = parse_element(grig, "1", QQ)
        for level in (1, 2, 3):
            assert image_at_level(one, level) == identity_matrix(grig, QQ, level)

    def test_recursion_of_relation(self, grig):
        # bc = d must persist through the recursion.
        b = parse_element(grig, "b", QQ)
        c = parse_element(grig, "c", QQ)
        d = parse_element(grig, "d", QQ)
        for level in (1, 2, 3):
            assert image_at_level(b, level).mul(image_at_level(c, level)) == image_at_level(
                d, level
            )

    def test_step_increments_level(self, adding):
        m = level0(parse_element(adding, "a", QQ))
        m1 = recursion_step(m)
        assert m1.level == 1 and m1.size == 2

    def test_format_matrix(self, adding):
        text = format_matrix(image_at_level(parse_element(adding, "a", QQ), 1))
        assert text.splitlines() == ["[0  a]", "[1  0]"]


class TestWitness:
    def test_diagonal_form(self, grig):
        m = grig_witness(grig)
        assert set(m.entries) == {(1, 1)}
        assert format_element(m.entries[(1, 1)]) == "1+b+c+d"

    def test_second_iteration_nonzero(self, grig):
        # One more recursion step keeps the corner block equal to the element.
        m2 = recursion_step(grig_witness(grig))
        assert format_element(m2.entries[(3, 3)]) == "1+b+c+d"
        assert all(r == c for (r, c) in m2.entries)

    def test_characteristic_guard(self, grig):
        with pytest.raises(ValueError):
            grig_witness(grig, QQ)


class TestHomomorphism:
    def test_grig(self, grig):
        assert homomorphism_check(grig, samples=10, level=2, field=GF2, seed=1)

    def test_adding(self, adding):
        assert homomorphism_check(adding, samples=10, level=2, field=QQ, seed=2)

    def test_level_validation(self, grig):
        with pytest.raises(ValueError):
            homomorphism_check(grig, samples=1, level=0, field=GF2)


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
        cache = {}
        tables = [thinned_dims_at_level(grig, 12, GF2, level, cache) for level in (1, 2, 3, 4)]
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
            (PrimeField(3), [248, 284, 322, 362]),
            (QQ, [248, 284, 322, 362]),
        ],
        ids=["F2", "F3", "Q"],
    )
    def test_field_dependence_at_scale(self, grig, field, tail):
        # At n=16 the rank over F2 falls below the rank over F3 and Q.
        res = thinned_growth(grig, 16, field)
        assert [d for _, d in res.dims][-4:] == tail
        assert (res.level, res.stabilized) == (5, True)

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
        assert element_name(grig, grig.intern(grig.element("bc"))) == "d"
