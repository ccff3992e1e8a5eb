import random
from fractions import Fraction
from math import gcd

import pytest

from groupoid_growth.fields import (
    GF2,
    QQ,
    BitRowBasis,
    Field,
    RowBasis,
    new_basis,
    parse_field,
    set_bits,
)
from groupoid_growth.shift_algebra import growth_dims
from groupoid_growth.subshift import build_language
from groupoid_growth.words import golden_sturmian


class TestFieldArithmetic:
    def test_rationals(self):
        # The rationals are the field of characteristic 0.
        assert QQ == Field(0) and hash(QQ) == hash(Field(0))
        assert (QQ.characteristic, QQ.name, repr(QQ)) == (0, "Q", "Q")
        assert QQ != GF2

    def test_prime_field(self):
        # F_p is the field of characteristic p; equality and hash go by it.
        f7 = Field(7)
        assert (f7.characteristic, f7.name, repr(f7)) == (7, "F7", "F7")
        assert f7 == Field(7) and hash(f7) == hash(Field(7))
        assert f7 != Field(3) and GF2 == Field(2)

    def test_non_prime_rejected(self):
        for p in (1, 4, 6, -3, 2**31 + 11):
            with pytest.raises(ValueError, match="prime field modulus"):
                Field(p)

    def test_parse_field(self):
        assert parse_field("Q") == QQ
        assert parse_field("F2") == GF2
        assert parse_field("Fp:2") == GF2
        assert type(new_basis(parse_field("Fp:2"))) is BitRowBasis
        assert parse_field("Fp:7") == Field(7)
        for spec in ("R", "Fp:0", "Fp:1", "Fp:4", "Fp:2147483659"):
            with pytest.raises(ValueError):
                parse_field(spec)


class TestRowBasis:
    def test_reduce_empty_basis(self):
        # Nothing to reduce against: the support is stored as it is, with
        # its largest coordinate as pivot.
        basis = RowBasis(QQ)
        assert basis.insert([2, 0])
        assert basis.rows == {2: {0: 1, 2: 1}}
        assert max(basis.rows, default=-1) == 2

    def test_reduce_scalar_multiple(self):
        # {0,2} reduces to 2*e_2 over Q, which is stored as the primitive e_2
        # and back-substituted into the other rows.  It is {0,1} + {1,2} mod
        # 2, so the GF(2) shadow rejects it and the basis reduces over Q
        # from then on: {0,1,2}, half the sum of the three rows, is
        # dependent, although the shadow, which holds only {0,1} and {1,2},
        # would accept it.
        basis = RowBasis(QQ)
        assert basis.insert([0, 1])
        assert basis.insert([1, 2])
        assert basis.insert([0, 2])
        assert not basis.insert([0, 1, 2])
        assert basis.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}

    def test_reduce_f2_one_step(self):
        basis = RowBasis(GF2)
        basis.insert([0, 1])
        assert basis.insert([0])  # residue e_1
        assert basis.rows == {0: {0: 1}, 1: {1: 1}}

    @pytest.mark.parametrize("field", [QQ, Field(3)], ids=str)
    def test_pivot_below_top_clears_older_rows(self, field):
        # Pivot 0 arrives below top = 5 and must be cleared from row 5,
        # which holds it; a basis that skipped back-substitution would keep
        # row 5 = e_0 + e_5 and then accept e_5 and e_3 as new.
        basis = RowBasis(field)
        assert basis.insert([0, 5])
        assert basis.insert([3, 5])
        assert basis.rows[3] == ({0: -1, 3: 1} if field == QQ else {0: 2, 3: 1})
        assert basis.insert([0])
        assert basis.rows == {5: {5: 1}, 3: {3: 1}, 0: {0: 1}}
        assert max(basis.rows, default=-1) == 5
        assert not basis.insert([5])
        assert not basis.insert([3])
        assert basis.rank == 3

    def test_insert_rank(self):
        basis = RowBasis(QQ)
        assert basis.insert([0])
        assert basis.insert([1])
        assert basis.rank == 2

    def test_insert_duplicate(self):
        basis = RowBasis(QQ)
        assert basis.insert([0, 1])
        assert not basis.insert([1, 0])
        assert basis.rank == 1

    def test_f2_dependent_triple(self):
        basis = RowBasis(GF2)
        basis.insert([0, 1])
        basis.insert([1, 2])
        assert not basis.insert([0, 2])
        assert basis.rank == 2

    def test_rank_insertion_order_invariant(self):
        rng = random.Random(7)
        supports = [[i for i in range(8) if rng.random() < 0.5] for _ in range(12)]
        ranks = set()
        for _ in range(5):
            rng.shuffle(supports)
            basis = RowBasis(QQ)
            for support in supports:
                basis.insert(support)
            ranks.add(basis.rank)
        assert len(ranks) == 1

    def test_rational_rank_at_least_modular(self):
        rng = random.Random(3)
        for _ in range(10):
            supports = [[i for i in range(6) if rng.random() < 0.5] for _ in range(8)]
            bq = RowBasis(QQ)
            b2 = RowBasis(GF2)
            for support in supports:
                bq.insert(support)
                b2.insert(support)
            assert bq.rank >= b2.rank


class TestBitRowBasis:
    def test_matches_row_basis(self):
        rng = random.Random(5)
        bits = BitRowBasis()
        generic = RowBasis(GF2)
        for support in random_supports(rng, 40, 16):
            assert bits.insert(support) == generic.insert(support)
        assert bits.rank == generic.rank

    def test_reduce_zero_in_span(self):
        b = BitRowBasis()
        b.insert([0, 1])
        b.insert([1, 2])
        assert b.reduce(0b0101) == 0


class TestNewBasis:
    def test_dispatch(self):
        assert type(new_basis(GF2)) is BitRowBasis
        assert type(new_basis(Field(2))) is BitRowBasis
        assert type(new_basis(QQ)) is RowBasis
        assert new_basis(Field(3)).field == Field(3)

    @pytest.mark.parametrize("field", [QQ, Field(3), GF2], ids=str)
    def test_support_is_any_iterable_of_coordinates(self, field):
        # No ambient dimension: any nonnegative int is a coordinate, and a
        # repeated coordinate names the same 0/1 vector.
        basis = new_basis(field)
        assert basis.insert(iter([0, 10**6]))
        assert not basis.insert({10**6, 0})
        assert not basis.insert((0, 0, 10**6))
        assert basis.insert(range(3))
        assert basis.rank == 2
        # A negative coordinate fails loudly and leaves the basis unchanged.
        with pytest.raises(ValueError):
            basis.insert([-1])
        with pytest.raises(ValueError):
            basis.insert([0, 1, -3])
        assert basis.rank == 2

    @pytest.mark.parametrize("field", [QQ, Field(3), GF2], ids=str)
    def test_support_as_bitmask(self, field):
        # An int bitmask names the vector of its set bits: a basis fed the
        # masks answers every insert as one fed the coordinate lists, and
        # ends with the same rows.
        for dim, supports in corpus():
            by_list, by_mask = new_basis(field), new_basis(field)
            for support in supports:
                mask = sum(1 << i for i in set(support))
                assert set_bits(mask) == sorted(set(support))
                assert by_mask.insert(mask) == by_list.insert(support)
            assert by_mask.rank == by_list.rank
            assert by_mask.rows == by_list.rows
        basis = new_basis(field)
        assert basis.insert(1 << 10**4 | 1)
        assert not basis.insert([10**4, 0])
        assert not basis.insert(0)
        # A negative mask fails loudly and leaves the basis unchanged.
        with pytest.raises(ValueError, match="negative bitmask"):
            basis.insert(-1)
        with pytest.raises(ValueError, match="negative bitmask"):
            basis.insert(-(1 << 70))
        assert basis.rank == 1


# -- an independent oracle: batch Gaussian elimination, no RowBasis -----------


def oracle_rank(matrix, p=0):
    """Rank of dense integer rows by textbook elimination over Q (p=0) or F_p."""
    rows = [[Fraction(x) if p == 0 else x % p for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = 1 / top[col] if p == 0 else pow(top[col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rank


def random_supports(rng, nrows, dim):
    """0/1 supports: random ones, duplicates of earlier rows, unions of blocks
    of a fixed partition of the coordinates (dependent over every field),
    and the rows S - {i} of a random m-set S.  Those m rows have
    determinant +-(m-1), so they are dependent over F_p exactly when p
    divides m-1: m = 4 and 7 separate F_3 from Q, m = 8 separates F_7."""
    coords = list(range(dim))
    rng.shuffle(coords)
    cuts = sorted(rng.sample(range(1, dim), min(3, dim - 1)))
    blocks = [coords[a:b] for a, b in zip([0] + cuts, cuts + [dim])]
    rows = []
    while len(rows) < nrows:
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35:
            rows.append([i for block in blocks if rng.random() < 0.5 for i in block])
        elif kind < 0.6:
            chosen = rng.sample(range(dim), min(dim, rng.choice((3, 4, 7, 8))))
            rows += [[j for j in chosen if j != i] for i in chosen]
        else:
            rows.append([i for i in range(dim) if rng.random() < 0.5])
    return rows


def dense(supports, dim):
    return [[int(i in s) for i in range(dim)] for s in map(set, supports)]


def corpus():
    """(dim, supports) pairs: the rows S - {i} of an m-set S for m = 2..9,
    then seeded random matrices."""
    for m in range(2, 10):
        yield m, [[j for j in range(m) if j != i] for i in range(m)]
    rng = random.Random(2024)
    for _ in range(60):
        dim = rng.randint(1, 10)
        yield dim, random_supports(rng, rng.randint(1, 12), dim)


FIELDS = [QQ, Field(3), Field(7)]


class TestAgainstOracle:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_rank_matches_batch_elimination(self, field):
        p = field.characteristic
        for dim, supports in corpus():
            matrix = dense(supports, dim)
            basis = RowBasis(field)
            for k, support in enumerate(supports):
                grew = oracle_rank(matrix[: k + 1], p) > oracle_rank(matrix[:k], p)
                assert basis.insert(support) == grew
            assert basis.rank == oracle_rank(matrix, p)

    def test_corpus_separates_the_fields(self):
        # The corpus tests the field arithmetic only if some of its matrices
        # have different ranks over Q, F_3 and F_7.  Those that differ over
        # Q and F_2 (the m = 3 rows have determinant +-2) take a rational
        # basis past its shadow's first rejection.
        differ = set()
        for dim, supports in corpus():
            matrix = dense(supports, dim)
            q = oracle_rank(matrix)
            differ |= {p for p in (2, 3, 7) if oracle_rank(matrix, p) != q}
        assert differ == {2, 3, 7}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_row_invariants(self, field):
        rng = random.Random(99)
        p = field.characteristic
        for _ in range(30):
            basis = RowBasis(field)
            for support in random_supports(rng, 10, 8):
                basis.insert(support)
            for pivot, row in basis.rows.items():
                assert max(row) == pivot
                assert all(i <= pivot for i in row)
                assert all(type(c) is int and c for c in row.values())
                assert all(pivot not in other for q, other in basis.rows.items() if q != pivot)
                if p:
                    assert row[pivot] == 1
                    assert all(0 < c < p for c in row.values())
                else:
                    assert row[pivot] > 0
                    assert gcd(*row.values()) == 1

    def test_pivot_entry_not_one(self):
        # 2e_3 + e_0 = {3,2} + {3,1,0} - {2,1}, and likewise for the other
        # rows: primitive over Q, with pivot entry 2.
        basis = RowBasis(QQ)
        for support in ([3, 2], [2, 1], [3, 1, 0]):
            assert basis.insert(support)
        assert basis.rows == {3: {3: 2, 0: 1}, 2: {2: 2, 0: -1}, 1: {1: 2, 0: 1}}
        assert not basis.insert([1, 0, 3])
        assert basis.insert([0])
        assert basis.rows == {i: {i: 1} for i in range(4)}


class TestShadow:
    def test_golden_growth_makes_no_rational_elimination(self, monkeypatch):
        # Every insert of the golden word's growth at n = 32 is independent
        # mod 2, so the shadow answers each one and none is reduced over Q.
        def fail(self, support):
            raise AssertionError("reduced over Q")

        monkeypatch.setattr(RowBasis, "_insert_exact", fail)
        lang = build_language(golden_sturmian(), n_max=65, prefix_budget=40 * 65 * 65)
        assert growth_dims(lang, 32, QQ) == [(n, 2 * n * n + 2) for n in range(1, 33)]

    def test_one_call_per_insert(self, monkeypatch):
        # The benchmark counts inserts by wrapping RowBasis.insert on the
        # class: reducing the queue must not go through it.
        calls = []
        insert = RowBasis.insert

        def counted(self, support):
            calls.append(support)
            return insert(self, support)

        monkeypatch.setattr(RowBasis, "insert", counted)
        outside = 0
        for dim, supports in corpus():
            basis = RowBasis(QQ)
            for support in supports:
                basis.insert(support)
                outside += 1
            assert basis.rank == len(basis.rows)
        assert len(calls) == outside
