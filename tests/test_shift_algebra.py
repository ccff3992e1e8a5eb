import pytest

from groupoid_growth.fields import GF2, QQ, PrimeField
from groupoid_growth.shift_algebra import (
    Monomial,
    RadiusExhausted,
    WindowSpace,
    apply_generator,
    atom_key,
    bruteforce_dims,
    expansive_certificate,
    generator_monomials,
    generator_names,
    growth_dims,
    module_apply,
    module_growth,
    semigroup_dims,
    separation_radius,
    unit_monomial,
)
from groupoid_growth.subshift import build_language
from groupoid_growth.words import golden_sturmian, thue_morse


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
        assert space.dim == 7 * space.p

    def test_too_shallow(self, golden):
        with pytest.raises(ValueError):
            WindowSpace(golden, 13)

    def test_index_bounds(self, golden):
        space = WindowSpace(golden, 2)
        with pytest.raises(RadiusExhausted):
            space.index(3, 0)


class TestGeneratorAction:
    def test_partition_of_unity(self, golden):
        # D_0 + D_1 = 1: the letter masks partition the window set.
        space = WindowSpace(golden, 2)
        gens = generator_monomials(space)
        assert gens["D:0"].support | gens["D:1"].support == gens["1"].support
        assert not (gens["D:0"].support & gens["D:1"].support)

    def test_shift_inverse(self, golden):
        space = WindowSpace(golden, 2)
        m = unit_monomial(space)
        assert apply_generator(space, "T-", apply_generator(space, "T", m)) == m

    def test_radius_exhausted(self, golden):
        space = WindowSpace(golden, 1)
        m = unit_monomial(space)
        m = apply_generator(space, "T", m)
        with pytest.raises(RadiusExhausted):
            apply_generator(space, "T", m)

    def test_projection_idempotent(self, golden):
        space = WindowSpace(golden, 2)
        m = generator_monomials(space)["D:1"]
        assert apply_generator(space, "D:1", m) == m
        assert not apply_generator(space, "D:0", m).support

    def test_unknown_generator(self, golden):
        space = WindowSpace(golden, 1)
        with pytest.raises(ValueError):
            apply_generator(space, "U", unit_monomial(space))


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
        f3 = growth_dims(golden, n, PrimeField(3))
        assert q == f2 == f3

    def test_oracle_agreement(self, golden, tm):
        for lang in (golden, tm):
            for field in (QQ, GF2):
                assert growth_dims(lang, 4, field) == bruteforce_dims(lang, 4, field)

    def test_monotone_and_bounded(self, tm):
        dims = growth_dims(tm, 6, QQ)
        prev = 0
        for n, d in dims:
            assert prev <= d <= (2 * n + 1) * tm.complexity(2 * n)
            prev = d


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
    def test_shift_moves_basis(self):
        letters = [0, 1, 0, 0, 1]
        vec = module_apply(["T"], {0: 1}, lambda j: letters[j + 2], 2, QQ)
        assert vec == {1: 1}

    def test_projection_masks(self):
        letters = [0, 1, 0, 0, 1]
        vec = module_apply(["D:1"], {-1: 1, 0: 1, 1: 1}, lambda j: letters[j + 2], 2, QQ)
        assert vec == {-1: 1}

    def test_order_of_application(self):
        # Tokens act right-to-left: D_0 T e_0 tests the letter after the shift.
        letters = [0, 1, 0, 1, 1]  # letter(0)=0 but letter(1)=1
        assert module_apply(["D:0", "T"], {0: 1}, lambda j: letters[j + 2], 2, QQ) == {}
        assert module_apply(["T", "D:0"], {0: 1}, lambda j: letters[j + 2], 2, QQ) == {1: 1}

    def test_window_exhaustion(self):
        with pytest.raises(RadiusExhausted):
            module_apply(["T", "T"], {0: 1}, lambda j: 0, 1, QQ)

    def test_module_growth_linear(self, golden, tm):
        for lang in (golden, tm):
            dims = module_growth(lang, 8, QQ)
            assert dims == [(n, 2 * n + 1) for n in range(9)]

    def test_field_independent(self, golden):
        assert module_growth(golden, 6, QQ) == module_growth(golden, 6, GF2)


def _enumerated_atoms(lang, n):
    """Atom count by definition: distinct atom keys over the length-2n windows."""
    return len({atom_key(lambda k, w=w: w[k + n], n) for w in lang.factors[2 * n]})


class TestExpansive:
    def test_atoms_separate_golden_windows(self, golden):
        for n in range(1, 7):
            rep = expansive_certificate(golden, n)
            assert rep.atom_count == rep.window_count == golden.complexity(2 * n)
            assert rep.atom_count == _enumerated_atoms(golden, n)

    def test_atoms_separate_tm_windows(self, tm):
        for n in range(1, 7):
            rep = expansive_certificate(tm, n)
            assert rep.atom_count == rep.window_count
            assert rep.atom_count == _enumerated_atoms(tm, n)

    def test_atom_key_depends_on_letters(self):
        a = atom_key(lambda k: 0, 2)
        b = atom_key(lambda k: 1 if k == 0 else 0, 2)
        assert a != b

    def test_separation_radius(self):
        w1 = lambda k: 0
        w2 = lambda k: 1 if k == 2 else 0
        assert separation_radius(w1, w2, 5) == 3
        assert separation_radius(w1, w1, 5) is None


class TestMonomial:
    def test_generator_names(self, golden):
        assert generator_names(golden) == ["1", "T", "T-", "D:0", "D:1"]
