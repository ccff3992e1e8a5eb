import random
from fractions import Fraction
from math import gcd

import pytest

from groupoid_growth.fields import (
    GF2,
    QQ,
    BitRowBasis,
    DimensionMismatch,
    PrimeField,
    RowBasis,
    SparseVector,
    new_basis,
    parse_field,
)


def vec(entries, field=QQ, dim=None):
    d = dim if dim is not None else (max(entries) + 1 if entries else 1)
    return SparseVector(d, {i: field.from_int(c) for i, c in entries.items()}, field)


class TestFieldArithmetic:
    def test_rationals(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_prime_field(self):
        f7 = PrimeField(7)
        assert f7.mul(3, 5) == 1
        assert f7.inv(3) == 5
        assert f7.sub(2, 5) == 4

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_parse_field(self):
        assert parse_field("Q") == QQ
        assert parse_field("F2") == GF2
        assert parse_field("Fp:7") == PrimeField(7)
        with pytest.raises(ValueError):
            parse_field("R")


class TestSparseVector:
    def test_zero_entries_stripped(self):
        v = vec({0: 1, 1: 0}, dim=2)
        assert v.entries == {0: Fraction(1)}

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            SparseVector(2, {3: Fraction(1)}, QQ)


class TestRowBasis:
    def test_reduce_empty_basis(self):
        basis = RowBasis(QQ, 2)
        v = vec({0: 1}, dim=2)
        assert basis.reduce_against(v) == v

    def test_reduce_scalar_multiple(self):
        basis = RowBasis(QQ, 2)
        basis.insert(vec({0: 1}, dim=2))
        assert basis.reduce_against(vec({0: 3}, dim=2)).is_zero()

    def test_reduce_f2_one_step(self):
        basis = RowBasis(GF2, 2)
        basis.insert(vec({0: 1, 1: 1}, GF2, dim=2))
        residue = basis.reduce_against(vec({0: 1}, GF2, dim=2))
        assert residue.entries == {1: 1}

    def test_insert_rank(self):
        basis = RowBasis(QQ, 2)
        assert basis.insert(vec({0: 1}, dim=2))
        assert basis.insert(vec({1: 1}, dim=2))
        assert basis.rank == 2

    def test_insert_duplicate(self):
        basis = RowBasis(QQ, 2)
        assert basis.insert(vec({0: 1, 1: 1}, dim=2))
        assert not basis.insert(vec({0: 1, 1: 1}, dim=2))
        assert basis.rank == 1

    def test_f2_dependent_triple(self):
        basis = RowBasis(GF2, 3)
        basis.insert(vec({0: 1, 1: 1}, GF2, dim=3))
        basis.insert(vec({1: 1, 2: 1}, GF2, dim=3))
        assert not basis.insert(vec({0: 1, 2: 1}, GF2, dim=3))
        assert basis.rank == 2

    def test_dimension_mismatch(self):
        basis = RowBasis(QQ, 2)
        with pytest.raises(DimensionMismatch):
            basis.insert(vec({0: 1}, dim=3))

    def test_rank_insertion_order_invariant(self):
        rng = random.Random(7)
        dim = 8
        vectors = [
            {i: rng.randint(0, 1) for i in range(dim)} for _ in range(12)
        ]
        ranks = set()
        for _ in range(5):
            rng.shuffle(vectors)
            basis = RowBasis(QQ, dim)
            for entries in vectors:
                basis.insert(vec(entries, dim=dim))
            ranks.add(basis.rank)
        assert len(ranks) == 1

    def test_rational_rank_at_least_modular(self):
        rng = random.Random(3)
        for _ in range(10):
            dim = 6
            vectors = [{i: rng.randint(0, 1) for i in range(dim)} for _ in range(8)]
            bq = RowBasis(QQ, dim)
            b2 = RowBasis(GF2, dim)
            for entries in vectors:
                bq.insert(vec(entries, dim=dim))
                b2.insert(vec(entries, GF2, dim=dim))
            assert bq.rank >= b2.rank

    def test_express_witness(self):
        rng = random.Random(11)
        dim = 6
        basis = RowBasis(QQ, dim)
        rows = []
        for _ in range(4):
            entries = {i: rng.randint(0, 3) for i in range(dim)}
            v = vec(entries, dim=dim)
            if basis.insert(v):
                rows.append(v)
        # A random combination must reduce to zero, and the witness must re-sum to v.
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        combo: dict = {}
        for c, row in zip(coeffs, rows):
            for i, x in enumerate([row.entries.get(j, Fraction(0)) for j in range(dim)]):
                combo[i] = combo.get(i, Fraction(0)) + c * x
        v = SparseVector(dim, combo, QQ)
        witness = basis.express(v)
        assert witness is not None
        resum: dict = {}
        for pivot, c in witness:
            for i, x in basis.rows[pivot].items():
                resum[i] = resum.get(i, Fraction(0)) + c * x
        assert SparseVector(dim, resum, QQ) == v

    def test_express_outside_span(self):
        basis = RowBasis(QQ, 2)
        basis.insert(vec({0: 1}, dim=2))
        assert basis.express(vec({1: 1}, dim=2)) is None


class TestBitRowBasis:
    def test_matches_row_basis(self):
        rng = random.Random(5)
        dim = 16
        masks = [rng.getrandbits(dim) for _ in range(20)]
        bits = BitRowBasis(dim)
        generic = RowBasis(GF2, dim)
        for m in masks:
            bits.insert(m)
            generic.insert(
                SparseVector(dim, {i: 1 for i in range(dim) if m >> i & 1}, GF2)
            )
        assert bits.rank == generic.rank

    def test_reduce_zero_in_span(self):
        b = BitRowBasis(4)
        b.insert(0b0011)
        b.insert(0b0110)
        assert b.reduce(0b0101) == 0

    def test_dim_guard(self):
        b = BitRowBasis(3)
        with pytest.raises(DimensionMismatch):
            b.insert(0b10000)


class TestSupportBounds:
    """Every basis rejects a support index outside [0, dim) the same way."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), GF2], ids=str)
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_index(self, field, bad):
        basis = new_basis(field, 4)
        with pytest.raises(DimensionMismatch):
            basis.insert_support([0, bad])
        assert basis.rank == 0
        assert basis.insert_support([0, 3])


# -- an independent oracle: batch Gaussian elimination, no RowBasis -----------


def oracle_rank(matrix, p=0):
    """Rank of dense rows of rationals by textbook elimination over Q (p=0) or F_p."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if p:
        rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
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


def random_matrix(rng, nrows, dim, scalars):
    """Rows of random scalars, plus duplicates and integer combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and kind < 0.4:
            a, b = rng.sample(rows, 2)
            s, t = rng.choice(scalars), rng.choice(scalars)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice(scalars) if rng.random() < 0.5 else 0 for _ in range(dim)])
    return rows


def to_field(row, field):
    """The dense row of Fractions as a SparseVector over ``field``."""
    p = field.characteristic
    if p:
        row = [x.numerator * pow(x.denominator, -1, p) % p for x in row]
    return SparseVector(len(row), dict(enumerate(row)), field)


FIELDS = [QQ, PrimeField(3), PrimeField(7)]
# Denominators 2, 4, 5 and 10 are units mod 3 and mod 7.
SCALARS = [Fraction(x) for x in (-3, -2, -1, 1, 2, 5)] + [
    Fraction(1, 2), Fraction(-3, 4), Fraction(7, 10), Fraction(-2, 5)
]


class TestAgainstOracle:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_rank_matches_batch_elimination(self, field):
        rng = random.Random(2024)
        p = field.characteristic
        for _ in range(40):
            dim = rng.randint(1, 9)
            matrix = random_matrix(rng, rng.randint(1, 12), dim, SCALARS)
            basis = RowBasis(field, dim)
            for k, row in enumerate(matrix):
                grew = oracle_rank(matrix[: k + 1], p) > oracle_rank(matrix[:k], p)
                assert basis.insert(to_field(row, field)) == grew
            assert basis.rank == oracle_rank(matrix, p)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_row_invariants(self, field):
        rng = random.Random(99)
        p = field.characteristic
        for _ in range(20):
            dim = 8
            basis = RowBasis(field, dim)
            for row in random_matrix(rng, 10, dim, SCALARS):
                basis.insert(to_field(row, field))
            for pivot, row in basis.rows.items():
                assert min(row) == pivot
                assert all(type(c) is int and c for c in row.values())
                assert all(pivot not in other for q, other in basis.rows.items() if q != pivot)
                if p:
                    assert row[pivot] == 1
                    assert all(0 < c < p for c in row.values())
                else:
                    assert row[pivot] > 0
                    assert gcd(*row.values()) == 1

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_express_and_reduce(self, field):
        rng = random.Random(31)
        p = field.characteristic
        zero = field.zero()
        for _ in range(30):
            dim = rng.randint(2, 8)
            basis = RowBasis(field, dim)
            rows = random_matrix(rng, rng.randint(1, 6), dim, SCALARS)
            for row in rows:
                basis.insert(to_field(row, field))
            probe = random_matrix(rng, 1, dim, SCALARS)[0]
            coeffs = [rng.choice(SCALARS) for _ in rows]
            combo = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(dim)]
            for target in (probe, combo):
                v = to_field(target, field)
                in_span = oracle_rank(rows + [target], p) == oracle_rank(rows, p)
                residue = basis.reduce_against(v)
                assert residue.is_zero() == in_span
                assert not set(residue.entries) & set(basis.rows)
                witness = basis.express(v)
                assert (witness is not None) == in_span
                # v - residue is the witness combination of the rows as stored.
                diff = {
                    i: field.sub(v.entries.get(i, zero), residue.entries.get(i, zero))
                    for i in range(dim)
                }
                coeffs = dict(basis.express(SparseVector(dim, diff, field)))
                resum = dict.fromkeys(range(dim), zero)
                for pivot, c in coeffs.items():
                    for i, x in basis.rows[pivot].items():
                        resum[i] = field.add(resum[i], field.mul(c, field.from_int(x)))
                assert SparseVector(dim, resum, field) == SparseVector(dim, diff, field)
                if witness is not None:
                    assert dict(witness) == coeffs

    def test_pivot_entry_not_one(self):
        basis = RowBasis(QQ, 3)
        assert basis.insert(vec({0: 2, 1: 3}, dim=3))
        assert basis.insert(vec({1: 4, 2: 6}, dim=3))
        assert basis.rows == {0: {0: 4, 2: -9}, 1: {1: 2, 2: 3}}
        witness = basis.express(vec({0: 2, 1: 3}, dim=3))
        assert witness == [(0, Fraction(1, 2)), (1, Fraction(3, 2))]
        residue = basis.reduce_against(vec({0: 1}, dim=3))
        assert residue.entries == {2: Fraction(9, 4)}
