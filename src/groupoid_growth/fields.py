"""Exact scalar arithmetic and incremental row reduction.

Every dimension computed by this package is the rank of a set of exact
vectors, either over the rationals or over a prime field.  Rational
scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator); prime-field scalars are plain ints in ``[0, p)``.
A :class:`Field` instance bundles the arithmetic so that the linear
algebra below is field-agnostic.

Row reduction is incremental (rank-by-insertion): growth computations
extend a basis level by level, so a batch eliminator would be the wrong
shape.  :class:`RowBasis` keeps its rows in reduced echelon form, which
makes membership tests and explicit linear-combination witnesses cheap.
:class:`BitRowBasis` is a dense GF(2) specialization (rows are Python
ints used as bit masks) for the larger mod-2 rank computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]


class DimensionMismatch(ValueError):
    """Vector does not have the ambient dimension of the basis."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Arithmetic of a coefficient field; see :class:`Rationals`, :class:`PrimeField`."""

    name: str
    characteristic: int

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def from_int(self, n: int) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class Rationals(Field):
    name = "Q"
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The field F_p for a prime p <= 2**31, validated at construction."""

    def __init__(self, p: int):
        if not (2 <= p <= 2**31):
            raise ValueError(f"prime field modulus out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"prime field modulus is not prime: {p}")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()
GF2 = PrimeField(2)


def parse_field(spec: str) -> Field:
    """Parse a field flag: ``Q`` or ``Fp:<prime>`` (``F2`` accepted as shorthand)."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec == "F2":
        return GF2
    if spec.startswith("Fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r}; expected Q or Fp:<prime>")


class SparseVector:
    """Sparse exact vector: index -> nonzero scalar, with an ambient dimension."""

    __slots__ = ("dim", "entries", "field")

    def __init__(self, dim: int, entries: dict, field: Field):
        zero = field.zero()
        self.dim = dim
        self.field = field
        self.entries = {i: c for i, c in entries.items() if c != zero}
        for i in self.entries:
            if not (0 <= i < dim):
                raise IndexError(f"coordinate {i} outside ambient dimension {dim}")

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseVector(dim={self.dim}, {self.entries})"


class RowBasis:
    """Incrementally built reduced row echelon basis over an exact field.

    Invariants: each row's pivot (smallest nonzero index) is unique, the
    pivot coefficient is 1, and the pivot coordinate is zero in every
    other row.  ``rank`` equals the number of rows.
    """

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict[int, dict] = {}  # pivot -> row entries (pivot coeff 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check(self, v: SparseVector) -> None:
        if v.dim != self.dim:
            raise DimensionMismatch(f"vector dim {v.dim} != basis dim {self.dim}")
        if v.field != self.field:
            raise DimensionMismatch(f"vector field {v.field} != basis field {self.field}")

    def _eliminate(self, entries: dict, record: list | None = None) -> dict:
        f = self.field
        zero = f.zero()
        residue = dict(entries)
        # Reduced echelon form: eliminating a pivot only introduces
        # non-pivot coordinates, so one pass over the pivot hits suffices.
        for p in sorted(set(residue) & set(self.rows)):
            coeff = residue.get(p, zero)
            if coeff == zero:
                continue
            if record is not None:
                record.append((p, coeff))
            row = self.rows[p]
            for i, c in row.items():
                new = f.sub(residue.get(i, zero), f.mul(coeff, c))
                if new == zero:
                    residue.pop(i, None)
                else:
                    residue[i] = new
        return residue

    def reduce_against(self, v: SparseVector) -> SparseVector:
        """Residue of v after elimination by all rows; zero iff v is in the span."""
        self._check(v)
        return SparseVector(self.dim, self._eliminate(v.entries), self.field)

    def express(self, v: SparseVector):
        """Return [(pivot, coeff)] with v = sum(coeff * row[pivot]), or None if v not in span."""
        self._check(v)
        record: list = []
        residue = self._eliminate(v.entries, record)
        return record if not residue else None

    def insert(self, v: SparseVector) -> bool:
        """Reduce v and append the normalized residue if independent.

        Returns True iff the rank increased.
        """
        self._check(v)
        f = self.field
        residue = self._eliminate(v.entries)
        if not residue:
            return False
        pivot = min(residue)
        scale = f.inv(residue[pivot])
        row = {i: f.mul(scale, c) for i, c in residue.items()}
        # Back-substitute into existing rows to keep reduced echelon form.
        zero = f.zero()
        for q, other in self.rows.items():
            coeff = other.get(pivot)
            if coeff is None:
                continue
            for i, c in row.items():
                new = f.sub(other.get(i, zero), f.mul(coeff, c))
                if new == zero:
                    other.pop(i, None)
                else:
                    other[i] = new
        self.rows[pivot] = row
        return True

    def insert_support(self, indices) -> bool:
        """Insert the 0/1 vector that is 1 exactly at ``indices``."""
        one = self.field.one()
        return self.insert(SparseVector(self.dim, dict.fromkeys(indices, one), self.field))


class BitRowBasis:
    """Rank accumulator over GF(2) with rows as int bit masks.

    Same insert/rank contract as :class:`RowBasis`, specialized for the
    mod-2 runs where vectors are dense enough that Python-int XOR wins.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, int] = {}  # pivot bit -> row mask

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, mask: int) -> int:
        while mask:
            p = mask.bit_length() - 1
            row = self.rows.get(p)
            if row is None:
                return mask
            mask ^= row
        return 0

    def insert(self, mask: int) -> bool:
        if mask.bit_length() > self.dim:
            raise DimensionMismatch("bit index outside ambient dimension")
        mask = self.reduce(mask)
        if not mask:
            return False
        self.rows[mask.bit_length() - 1] = mask
        return True

    def insert_support(self, indices) -> bool:
        """Insert the 0/1 vector that is 1 exactly at ``indices``."""
        mask = 0
        for i in indices:
            mask |= 1 << i
        return self.insert(mask)


def new_basis(field: Field, dim: int):
    """Empty rank accumulator of ambient dimension ``dim`` over ``field``:
    a :class:`BitRowBasis` over GF(2), a :class:`RowBasis` otherwise."""
    return BitRowBasis(dim) if field == GF2 else RowBasis(field, dim)
