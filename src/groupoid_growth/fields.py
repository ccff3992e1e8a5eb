"""Exact scalar arithmetic and incremental rank of 0/1 vectors.

Every dimension computed by this package is the rank of a set of 0/1
evaluation vectors, either over the rationals or over a prime field.
Rational scalars are `fractions.Fraction` (arbitrary precision, always
reduced, positive denominator); prime-field scalars are plain ints in
``[0, p)``.  A :class:`Field` instance bundles that scalar arithmetic for
the group rings of :mod:`matrix_recursion`.

Rank is incremental (rank-by-insertion): growth computations extend a
basis level by level, so a batch eliminator would be the wrong shape.
There is one interface: ``new_basis(field)`` returns an empty basis, and
``basis.insert(support)`` adds the 0/1 vector that is 1 exactly at the
int coordinates in ``support`` and says whether the rank grew.  There is
no ambient dimension: any nonnegative int is a coordinate.
:class:`RowBasis` keeps its rows in reduced echelon form with Python ints
only (primitive integer rows over Q, residues mod p over F_p), so no
``Fraction`` is built while reducing.  :class:`BitRowBasis` is the GF(2)
specialization (rows are Python ints used as bit masks).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Scalar = Union[Fraction, int]


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

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
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

    def mul(self, a, b):
        return a * b

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

    def mul(self, a, b):
        return (a * b) % self.p

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


def _cancel(target: dict, q: int, row: dict, p: int) -> None:
    """Clear coordinate q of the int vector ``target`` with ``row``, whose pivot is q.

    Sets ``target = beta*target - alpha*row`` in place.  Over F_p (``p`` >
    0, ``row[q] == 1``) alpha is ``target[q]`` and beta is 1.  Over Z
    (``p == 0``) it is the fraction-free step: alpha = a/g and beta = b/g
    for a = ``target[q]``, b = ``row[q]`` > 0 and g = gcd(a, b).
    """
    a = target[q]
    if p:
        for i, c in row.items():
            new = (target.get(i, 0) - a * c) % p
            if new:
                target[i] = new
            else:  # only an entry already in target can cancel
                del target[i]
        return
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
      22, 1968).
    - F_p: entries are ints in ``[0, p)`` and the pivot entry is 1.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, support) -> bool:
        """Insert the 0/1 vector that is 1 exactly at the coordinates in
        ``support``; return True iff the rank increased."""
        rows = self.rows
        p = self.field.characteristic
        row = dict.fromkeys(support, 1)
        # Reduced echelon form makes one pass over the pivot hits suffice:
        # eliminating pivot q only touches non-pivot coordinates, so the
        # entries at the other pivots stay nonzero until their turn.
        for q in sorted(row.keys() & rows.keys()):
            _cancel(row, q, rows[q], p)
        if not row:
            return False
        pivot = min(row)
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
        for other in rows.values():
            if pivot in other:
                _cancel(other, pivot, row, p)
                if not p:
                    g = gcd(*other.values())
                    if g != 1:
                        for i in other:
                            other[i] //= g
        rows[pivot] = row
        return True


class BitRowBasis:
    """Rank accumulator over GF(2) with rows as int bit masks.

    Same insert/rank contract as :class:`RowBasis`, specialized for the
    mod-2 runs where vectors are dense enough that Python-int XOR wins.
    """

    def __init__(self):
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

    def insert(self, support) -> bool:
        """Insert the 0/1 vector that is 1 exactly at the coordinates in
        ``support``; return True iff the rank increased."""
        mask = 0
        for i in support:
            mask |= 1 << i
        mask = self.reduce(mask)
        if not mask:
            return False
        self.rows[mask.bit_length() - 1] = mask
        return True


def new_basis(field: Field):
    """Empty rank accumulator over ``field``: a :class:`BitRowBasis` over
    GF(2), a :class:`RowBasis` otherwise."""
    return BitRowBasis() if field == GF2 else RowBasis(field)
