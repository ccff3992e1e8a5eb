"""Exact scalar arithmetic and incremental row reduction.

Every dimension computed by this package is the rank of a set of exact
vectors, either over the rationals or over a prime field.  Rational
scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator); prime-field scalars are plain ints in ``[0, p)``.
A :class:`Field` instance bundles that scalar arithmetic for the callers
that build vectors (group-ring elements, module vectors).

Row reduction is incremental (rank-by-insertion): growth computations
extend a basis level by level, so a batch eliminator would be the wrong
shape.  :class:`RowBasis` keeps its rows in reduced echelon form, which
makes membership tests and explicit linear-combination witnesses cheap.
It does not go through :class:`Field`: its rows hold Python ints only
(primitive integer rows over Q, residues mod p over F_p), because
``Fraction`` arithmetic dominated the exact rank computations.
:class:`BitRowBasis` is a dense GF(2) specialization (rows are Python
ints used as bit masks) for the larger mod-2 rank computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
        self.dim = dim
        self.field = field
        self.entries = {i: c for i, c in entries.items() if c}
        if self.entries and (min(self.entries) < 0 or max(self.entries) >= dim):
            raise IndexError(f"coordinate outside ambient dimension {dim}")

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


def _check_support(indices, dim: int) -> None:
    """Raise :class:`DimensionMismatch` unless every index lies in ``[0, dim)``."""
    if indices and (min(indices) < 0 or max(indices) >= dim):
        raise DimensionMismatch(f"support index outside ambient dimension {dim}")


def _cancel(target: dict, q: int, row: dict, p: int) -> tuple[int, int]:
    """Clear coordinate q of the int vector ``target`` with ``row``, whose pivot is q.

    Sets ``target = beta*target - alpha*row`` in place and returns
    ``(alpha, beta)``.  Over F_p (``p`` > 0, ``row[q] == 1``) alpha is
    ``target[q]`` and beta is 1.  Over Z (``p == 0``) it is the
    fraction-free step: alpha = a/g and beta = b/g for a = ``target[q]``,
    b = ``row[q]`` > 0 and g = gcd(a, b).
    """
    a = target[q]
    if p:
        for i, c in row.items():
            new = (target.get(i, 0) - a * c) % p
            if new:
                target[i] = new
            else:  # only an entry already in target can cancel
                del target[i]
        return a, 1
    b = row[q]
    g = gcd(a, b)
    beta = b // g
    if beta != 1:
        for i in target:
            target[i] *= beta
    a //= g
    for i, c in row.items():
        new = target.get(i, 0) - a * c
        if new:
            target[i] = new
        else:  # only an entry already in target can cancel
            del target[i]
    return a, beta


class RowBasis:
    """Incrementally built reduced row echelon basis over Q or F_p.

    ``rows`` maps each pivot to its row, a dict index -> nonzero Python int.
    Each row's pivot (smallest nonzero index) is unique, the pivot
    coordinate is zero in every other row, and ``rank`` equals the number
    of rows.  The field fixes how rows are scaled:

    - Q: a row is a primitive integer vector (the gcd of its entries is 1)
      with a positive pivot entry.  Elimination is fraction-free: a vector
      r with entry a at the pivot of a row whose pivot entry is b becomes
      ``(b/g)*r - (a/g)*row`` with ``g = gcd(a, b)`` (Bareiss, Math. Comp.
      22, 1968).  ``Fraction`` input is put over a common denominator on
      entry, so no ``Fraction`` is built while reducing.
    - F_p: entries are ints in ``[0, p)`` and the pivot entry is 1.
    """

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check(self, v: SparseVector) -> None:
        if v.dim != self.dim:
            raise DimensionMismatch(f"vector dim {v.dim} != basis dim {self.dim}")
        if v.field != self.field:
            raise DimensionMismatch(f"vector field {v.field} != basis field {self.field}")

    def _eliminate(self, entries: dict, record: list | None = None) -> tuple[dict, int]:
        """Reduce v (``entries``) by every row; return ``(r, m)``.

        r is an int vector with ``r = m * (v - sum(c * rows[q]))``, zero at
        every pivot; m is 1 over F_p.  ``record`` receives the pairs (q, c).
        Reduced echelon form makes one pass over the pivot hits suffice:
        eliminating pivot q only touches non-pivot coordinates, so the
        entries at the other pivots stay nonzero until their turn.
        """
        rows = self.rows
        p = self.field.characteristic
        m = 1
        if p:
            r = dict(entries)
        else:  # put v over the common denominator m of its entries
            for c in entries.values():
                d = c.denominator
                if d != 1:
                    m = m // gcd(m, d) * d
            r = {i: c.numerator * (m // c.denominator) for i, c in entries.items()}
        for q in sorted(r.keys() & rows.keys()):
            alpha, beta = _cancel(r, q, rows[q], p)
            m *= beta
            if record is not None:
                record.append((q, alpha if p else Fraction(alpha, m)))
        return r, m

    def reduce_against(self, v: SparseVector) -> SparseVector:
        """Residue of v after elimination by all rows; zero iff v is in the span.

        The residue is the unique vector in v + span(rows) that is zero at
        every pivot, so it does not depend on how the rows are scaled.
        """
        self._check(v)
        r, m = self._eliminate(v.entries)
        if self.field.characteristic == 0:
            r = {i: Fraction(c, m) for i, c in r.items()}
        return SparseVector(self.dim, r, self.field)

    def express(self, v: SparseVector):
        """Return [(pivot, coeff)] with v = sum(coeff * rows[pivot]), or None if v not in span.

        The coefficients refer to ``rows`` as stored: Fractions over Q,
        ints in ``[0, p)`` over F_p.
        """
        self._check(v)
        record: list = []
        residue, _ = self._eliminate(v.entries, record)
        return record if not residue else None

    def insert(self, v: SparseVector) -> bool:
        """Reduce v and append the normalized residue if independent.

        Returns True iff the rank increased.
        """
        self._check(v)
        row, _ = self._eliminate(v.entries)
        if not row:
            return False
        pivot = min(row)
        p = self.field.characteristic
        if p:
            scale = pow(row[pivot], -1, p)
            if scale != 1:
                row = {i: c * scale % p for i, c in row.items()}
        else:
            g = gcd(*row.values())
            if row[pivot] < 0:
                g = -g
            if g != 1:
                row = {i: c // g for i, c in row.items()}
        # Back-substitute into existing rows to keep reduced echelon form.
        for other in self.rows.values():
            if pivot in other:
                _cancel(other, pivot, row, p)
                if not p:
                    g = gcd(*other.values())
                    if g != 1:
                        for i in other:
                            other[i] //= g
        self.rows[pivot] = row
        return True

    def insert_support(self, indices) -> bool:
        """Insert the 0/1 vector that is 1 exactly at the collection ``indices``."""
        entries = dict.fromkeys(indices, 1)
        _check_support(entries, self.dim)
        return self.insert(SparseVector(self.dim, entries, self.field))


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
        """Insert the 0/1 vector that is 1 exactly at the collection ``indices``."""
        _check_support(indices, self.dim)
        mask = 0
        for i in indices:
            mask |= 1 << i
        return self.insert(mask)


def new_basis(field: Field, dim: int):
    """Empty rank accumulator of ambient dimension ``dim`` over ``field``:
    a :class:`BitRowBasis` over GF(2), a :class:`RowBasis` otherwise."""
    return BitRowBasis(dim) if field == GF2 else RowBasis(field, dim)
