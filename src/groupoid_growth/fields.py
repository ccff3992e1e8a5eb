"""Exact scalar arithmetic and incremental rank of 0/1 vectors.

Every dimension computed by this package is the rank of a set of 0/1
evaluation vectors, either over the rationals or over a prime field.
One :class:`Field` type names both by its characteristic: 0 for the
rationals, p for F_p.  Scalars are Python ints: a group ring only adds
and multiplies its integer coefficients, so a rational scalar is an int
(nothing divides one), and a prime-field scalar is an int in ``[0, p)``,
reduced once per result by :func:`reduced`.

Rank is incremental (rank-by-insertion): growth computations extend a
basis level by level, so a batch eliminator would be the wrong shape.
There is one interface: ``new_basis(field)`` returns an empty basis, and
``basis.insert(support)`` adds the 0/1 vector that is 1 exactly at the
int coordinates in ``support`` and says whether the rank grew.  A support
is an iterable of coordinates or an int bitmask (bit i set for coordinate
i).  There is no ambient dimension: any nonnegative int is a coordinate.
:class:`RowBasis` keeps its rows in reduced echelon form with Python ints
only (primitive integer rows over Q, residues mod p over F_p), so no
fraction is built while reducing.  A row's pivot is its largest
coordinate, so a new row whose pivot is above every old pivot needs no
back-substitution, and a new vector reduces in one accumulation over the
pivots it hits.  :class:`BitRowBasis` is the GF(2) specialization (rows
are Python ints used as bit masks, pivot on the highest bit).

Over Q a :class:`RowBasis` has two phases.  First it keeps a GF(2) shadow,
a :class:`BitRowBasis` of the same supports, and while the shadow accepts,
an insert only queues its support: 0/1 rows independent mod 2 have an odd
maximal minor, which is nonzero, so they are independent over Q.  From the
shadow's first rejection on, every support is reduced over Q, the queued
ones first.  No shadow is kept over F_p.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def set_bits(mask: int) -> list[int]:
    """The coordinates of an int bitmask support, lowest first."""
    if mask < 0:
        raise ValueError(f"negative bitmask {mask}")
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_VALUES)))


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
    """The coefficient field of a given characteristic: 0 is the rationals
    and a prime p <= 2**31 is F_p, validated at construction.  Scalars are
    Python ints; a field says only whether they are taken mod p."""

    __slots__ = ("characteristic", "name")

    def __init__(self, characteristic: int):
        if characteristic:
            if not (2 <= characteristic <= 2**31):
                raise ValueError(f"prime field modulus out of range: {characteristic}")
            if not _is_prime(characteristic):
                raise ValueError(f"prime field modulus is not prime: {characteristic}")
        self.characteristic = characteristic
        self.name = f"F{characteristic}" if characteristic else "Q"

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    def __repr__(self) -> str:
        return self.name


QQ = Field(0)
GF2 = Field(2)


def parse_field(spec: str) -> Field:
    """Parse a field flag: ``Q`` or ``Fp:<prime>`` (``F2`` accepted as shorthand)."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec == "F2":
        return GF2
    if spec.startswith("Fp:") and spec[3:].isdecimal():
        p = int(spec[3:])
        if not p:  # Field(0) is Q
            raise ValueError("prime field modulus out of range: 0")
        return Field(p)
    raise ValueError(f"unknown field spec {spec!r}; expected Q or Fp:<prime>")


def reduced(coeffs: dict, p: int) -> dict:
    """The int scalars of ``coeffs`` taken mod ``p`` when ``p`` is nonzero,
    without the zero ones: a result's residues over characteristic p."""
    if p:
        return {k: r for k, c in coeffs.items() if (r := c % p)}
    return {k: c for k, c in coeffs.items() if c}


class RowBasis:
    """Incrementally built reduced row echelon basis over Q or F_p.

    ``rows`` maps each pivot to its row, a dict index -> nonzero Python int.
    A row's pivot is its largest index, so every column of a row is at most
    its pivot.  Each pivot is unique, the pivot coordinate is zero in every
    other row, and ``rank`` equals the number of rows.  The field fixes how
    rows are scaled:

    - Q: a row is a primitive integer vector (the gcd of its entries is 1)
      with a positive pivot entry.  Elimination is fraction-free (Bareiss,
      Math. Comp. 22, 1968): no fraction is built.
    - F_p: entries are ints in ``[0, p)`` and the pivot entry is 1.

    Over Q a basis starts in a shadow phase.  A :class:`BitRowBasis` holds
    the GF(2) image of every support inserted so far, and while it accepts,
    ``insert`` queues the support and returns True with no elimination over
    Q: 0/1 rows independent mod 2 have an odd maximal minor, which is
    nonzero, so they are independent over Q (the one-sided fact behind
    exact modular linear algebra, Dixon, Numer. Math. 40, 1982).  At the
    shadow's first rejection the basis drops the shadow and reduces the
    queue into its rows in arrival order; that support and every later one
    are reduced over Q.  Reading ``rows`` also reduces the queue, so it is
    the reduced echelon form of the supports in arrival order.  Over F_p
    there is no shadow: independence mod 2 says nothing mod p.

    A new row is reduced against the old ones, so its pivot is not an old
    pivot; when it exceeds every old pivot it is above every column of
    every old row, none of them holds it, and there is nothing to
    back-substitute.  Callers that number coordinates in order of first use
    (thinned growth) mostly insert such rows.
    """

    def __init__(self, field: Field):
        self.field = field
        self._rows: dict[int, dict[int, int]] = {}
        self._top = -1  # the largest pivot of _rows
        self._shadow = None if field.characteristic else BitRowBasis()
        self._queue: list = []  # supports the shadow accepted, not yet in _rows

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        self._reduce_queue()
        return self._rows

    @property
    def rank(self) -> int:
        return len(self._rows) + len(self._queue)

    def insert(self, support) -> bool:
        """Insert the 0/1 vector that is 1 exactly at the coordinates in
        ``support``, an iterable or an int bitmask; return True iff the rank
        increased.  A negative coordinate or bitmask raises ``ValueError``."""
        shadow = self._shadow
        if shadow is None:
            return self._insert_exact(support)
        if not isinstance(support, int):
            support = tuple(support)
        if shadow.insert(support):
            self._queue.append(support)
            return True
        self._shadow = None
        self._reduce_queue()
        return self._insert_exact(support)

    def _reduce_queue(self) -> None:
        queue = self._queue
        if queue:
            self._queue = []
            for support in queue:
                self._insert_exact(support)

    def _insert_exact(self, support) -> bool:
        """:meth:`insert` by elimination over the field."""
        rows = self._rows
        p = self.field.characteristic
        vec = dict.fromkeys(set_bits(support) if isinstance(support, int) else support, 1)
        # Reduced echelon form: subtracting row q changes no entry of vec at
        # another pivot, so each pivot hit keeps its 0/1 entry until its
        # turn and vec reduces in one accumulation,
        # L*vec - sum_q (L/d_q)*row_q with d_q the pivot entry of row q and
        # L the lcm of the d_q (L = 1 over F_p).  L is raised as the d_q
        # come: most are 1.
        scale = 1
        mixed = False  # whether a row longer than its pivot was subtracted
        for q in vec.keys() & rows.keys():
            row = rows[q]
            if len(row) == 1:  # row q is d_q * e_q
                del vec[q]
                continue
            mixed = True
            d = row[q]
            if scale % d:
                up = d // gcd(scale, d)
                scale *= up
                for i in vec:
                    vec[i] *= up
            m = scale // d
            for i, c in row.items():
                vec[i] = vec.get(i, 0) - m * c
        if mixed:
            vec = reduced(vec, p)
        if not vec:
            return False
        pivot = max(vec)
        if mixed:  # otherwise vec is still 0/1
            if p:
                if vec[pivot] != 1:
                    inv = pow(vec[pivot], -1, p)
                    vec = {i: c * inv % p for i, c in vec.items()}
            else:
                g = gcd(*vec.values())
                if vec[pivot] < 0:
                    g = -g
                if g != 1:
                    vec = {i: c // g for i, c in vec.items()}
        # No coordinate of a stored row is negative, so a negative one in
        # the support is never cancelled and always reaches this point.
        if min(vec) < 0:
            raise ValueError(f"negative coordinate {min(vec)}")
        if pivot < self._top:
            self._back_substitute(pivot, vec, p)
        else:
            self._top = pivot
        rows[pivot] = vec
        return True

    def _back_substitute(self, pivot: int, vec: dict, p: int) -> None:
        """Clear coordinate ``pivot`` from every stored row with the new row
        ``vec``, whose pivot it is, keeping each row's scaling."""
        d = vec[pivot]
        for q, row in self._rows.items():
            a = row.get(pivot)
            if a is None:
                continue
            if not p:
                # Fraction-free: row becomes (d/g)*row - (a/g)*vec, g = gcd(a, d).
                g = gcd(a, d)
                a //= g
                if d != g:
                    beta = d // g
                    for i in row:
                        row[i] *= beta
            for i, c in vec.items():
                new = row.get(i, 0) - a * c
                if p:
                    new %= p
                if new:
                    row[i] = new
                else:  # only an entry already in row can cancel
                    del row[i]
            if not p and row[q] != 1:
                g = gcd(*row.values())
                if g != 1:
                    for i in row:
                        row[i] //= g


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
        ``support``; return True iff the rank increased.  An int bitmask is
        reduced as it is; a negative one raises ``ValueError``."""
        mask = support
        if not isinstance(mask, int):
            mask = 0
            for i in support:
                mask |= 1 << i
        elif mask < 0:
            raise ValueError(f"negative bitmask {mask}")
        mask = self.reduce(mask)
        if not mask:
            return False
        self.rows[mask.bit_length() - 1] = mask
        return True


def new_basis(field: Field):
    """Empty rank accumulator over ``field``: a :class:`BitRowBasis` over
    GF(2), a :class:`RowBasis` otherwise."""
    return BitRowBasis() if field.characteristic == 2 else RowBasis(field)
