"""Group rings, level matrix algebras, matrix recursions, thinned growth.

A group-ring element is a plain dict from canonical id to a nonzero int
scalar, reduced mod the field's characteristic p when p is nonzero; equal
group elements have equal ids, so each coefficient has one key.  A level
matrix is a dict from (row, col) to a nonzero element.  Neither carries its
group, field or level: the functions that make or combine them take those
explicitly, and every one that returns an element or a matrix returns it
reduced, with no zero scalar and no empty entry.

The level-n algebra A_n is the d^n x d^n matrix algebra over the group
ring, rows and columns indexed by length-n words (lexicographic, read as
base-d integers).  The recursion map sends a group-ring entry g at
(u, v) to the entries g|_x at (u.g(x), v.x), one per letter; iterating
embeds A_0 = k[G] into arbitrarily deep levels.  Ranks of these images
are nonincreasing in the level, since each level's vectors are a linear
image of the previous level's, and eventually equal dimensions in the
convolution algebra.  The thinned-algebra growth table raises the level
until two consecutive levels agree.  Its pass works on vectors, not on
group elements: the level-m image psi_m of a group element is injective and
multiplicative, so each candidate s*h is the vector psi_m(s)*psi_m(h),
deduplicated by vector, and only products of sections and of two
generators are ever built as automata.  The rank is taken at level L >= m.
Over GF(2) the pass maps at m = L - 2 from L = 3 on, and each level-m
coordinate is expanded once into its chunk, the int mask of the d^2
level-L coordinates below it, so a support is the OR of d^m chunk masks
instead of d^L single bits; over other fields m = L, since their time is
in the basis.  That the next level agrees is proved
without its pass whenever one recursion step is injective on the span of
the current level's cells (:func:`step_is_injective`); that no later level
drops further is a heuristic, not a proof that the limit has been reached.
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import reduce
from operator import or_
from typing import NamedTuple

from .errors import IdentityError, ResourceError
from .fields import GF2, Field, new_basis, reduced
from .selfsimilar import SelfSimilarGroup


def ring_sum(a: dict, b: dict, field: Field) -> dict:
    """The group-ring element a + b."""
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, 0) + c
    return reduced(out, field.characteristic)


def ring_product(group: SelfSimilarGroup, a: dict, b: dict, field: Field) -> dict:
    """The group-ring element a * b, each pair of ids multiplied in ``group``."""
    out: dict = {}
    for g, cg in a.items():
        for h, ch in b.items():
            k = group.multiply(g, h)
            out[k] = out.get(k, 0) + cg * ch
    return reduced(out, field.characteristic)


def parse_element(group: SelfSimilarGroup, text: str, field: Field) -> dict:
    """Parse a group-ring element like 'b+c+d+1' or '2*ab+1'."""
    coeffs: dict = {}
    for term in text.replace(" ", "").split("+"):
        if not term:
            raise ValueError("empty term in group-ring element")
        coeff = 1
        if "*" in term:
            num, term = term.split("*", 1)
            if not term:
                raise ValueError(f"empty word after '{num}*' in group-ring element")
            if not num.removeprefix("-").isdecimal():
                raise ValueError(f"term '{num}*{term}': the coefficient {num!r} is not an integer")
            coeff = int(num)
        if term == "1":
            g = group.identity
        elif term.isdigit():
            coeff *= int(term)
            g = group.identity
        else:
            g = group.word_id(term)
        coeffs[g] = coeffs.get(g, 0) + coeff
    return reduced(coeffs, field.characteristic)


def element_name(group: SelfSimilarGroup, rid: int) -> str:
    """Short display name: generator/identity if recognizable, else a state tag."""
    if rid == group.identity:
        return "1"
    for name in group.gen_names:
        if group.gens[name] == rid:
            return name
    for name in group.gen_names:
        if group.inverse(group.gens[name]) == rid:
            return name.upper()
    return f"g{rid}"


def format_element(group: SelfSimilarGroup, elem: dict) -> str:
    """The terms of ``elem`` sorted by name (names are distinct), or "0"."""
    terms = sorted((element_name(group, rid), c) for rid, c in elem.items())
    return "+".join(name if c == 1 else f"{c}*{name}" for name, c in terms) or "0"


def matrix_sum(a: dict, b: dict, field: Field) -> dict:
    """The level matrix a + b."""
    out = dict(a)
    for rc, e in b.items():
        out[rc] = ring_sum(out[rc], e, field) if rc in out else e
    return {rc: e for rc, e in out.items() if e}


def matrix_product(group: SelfSimilarGroup, a: dict, b: dict, field: Field) -> dict:
    """The level matrix a * b."""
    bycol: dict = {}
    for (r, c), e in b.items():
        bycol.setdefault(r, []).append((c, e))
    out: dict = {}
    for (r, c), e in a.items():
        for c2, e2 in bycol.get(c, ()):
            key = (r, c2)
            prod = ring_product(group, e, e2, field)
            out[key] = ring_sum(out[key], prod, field) if key in out else prod
    return {rc: e for rc, e in out.items() if e}


# Most columns d^level an image_at_level call builds: on two letters, level
# 16 for a+b+1 in the Grigorchuk group takes ~1.9 s and ~210 MiB (Python
# 3.11, 2 cores), and each further level multiplies both by about d.
COLUMN_CAP = 1 << 16
# Most cells d^level x d^level that format_matrix lays out: level 8 on two
# letters, a printout of ~330 KB for a+b+1.
PRINT_CELL_CAP = 1 << 16


def check_level(d: int, level: int, printed: bool = False) -> None:
    """Raise :class:`ResourceError` if a level-``level`` image on ``d``
    letters has more than ``COLUMN_CAP`` columns or, when ``printed``, more
    than ``PRINT_CELL_CAP`` cells; nothing is built."""
    cap, what, exponent = (PRINT_CELL_CAP, "cells", 2 * level) if printed else (COLUMN_CAP, "columns", level)
    # d^e > cap for every d >= 2 once e reaches cap.bit_length(), so the
    # exponent is clamped there and a huge level costs nothing.
    if d ** min(exponent, cap.bit_length()) > cap:
        raise ResourceError(f"level-{level} image on {d} letters exceeds cap {cap} on {what}")


def image_at_level(group: SelfSimilarGroup, elem: dict, level: int, field: Field) -> dict:
    """The recursion map iterated ``level`` times, read off the level
    images of the support's elements (the ones thinned growth uses).
    Past ``COLUMN_CAP`` columns it raises :class:`ResourceError`."""
    check_level(group.d, level)
    cells: dict = {}
    for g, c in elem.items():
        for col, (row, e) in enumerate(group.level_sections(g, level)):
            cell = cells.setdefault((row, col), {})
            cell[e] = cell.get(e, 0) + c
    p = field.characteristic
    return {rc: entry for rc, cs in cells.items() if (entry := reduced(cs, p))}


def format_matrix(group: SelfSimilarGroup, m: dict, level: int) -> str:
    """One bracketed line per row of the level-``level`` matrix ``m``; past
    ``PRINT_CELL_CAP`` cells it raises :class:`ResourceError`."""
    check_level(group.d, level, printed=True)
    size = group.d**level
    cells = [
        [format_element(group, m[(r, c)]) if (r, c) in m else "0" for c in range(size)]
        for r in range(size)
    ]
    width = max(len(s) for row in cells for s in row)
    return "\n".join("[" + "  ".join(s.rjust(width) for s in row) + "]" for row in cells)


def grig_witness(group: SelfSimilarGroup) -> dict:
    """The level-1 image of b+c+d+1 over GF(2).

    The image is diagonal with a zero block and the block b+c+d+1, which
    certifies a nonzero element of the convolution algebra vanishing off
    the germs at 111...; any other result is a recursion bug.
    """
    elem = parse_element(group, "b+c+d+1", GF2)
    m = image_at_level(group, elem, 1, GF2)
    if m != {(1, 1): elem}:
        raise IdentityError("matrix recursion of b+c+d+1 is not diag(0, b+c+d+1)")
    return m


def random_terms(names, rng: random.Random) -> tuple[tuple[str, int], ...]:
    """1 to 3 random terms (word, coefficient): each word has 0 to 3 of the
    generator ``names``, each coefficient is from 1 to 5."""
    return tuple(
        ("".join(rng.choice(names) for _ in range(rng.randint(0, 3))), rng.randint(1, 5))
        for _ in range(rng.randint(1, 3))
    )


def element_of_terms(group: SelfSimilarGroup, field: Field, terms) -> dict:
    """The sum of coefficient * word over ``terms``."""
    coeffs: dict = {}
    for word, c in terms:
        g = group.word_id(word)
        coeffs[g] = coeffs.get(g, 0) + c
    return reduced(coeffs, field.characteristic)


def homomorphism_check(
    group: SelfSimilarGroup, samples: int, level: int, field: Field, seed: int
) -> tuple[bool, str]:
    """Random product/sum compatibility of the iterated recursion map: whether
    every sample passed, and the sha256 hex digest of the terms sampled up to
    the first failure, words and coefficients as drawn, not element ids, so
    that two runs can be compared by what they sampled."""
    if level < 1:
        raise ValueError("level must be >= 1")
    rng = random.Random(seed)
    drawn = hashlib.sha256()

    def image(elem: dict) -> dict:
        return image_at_level(group, elem, level, field)

    for _ in range(samples):
        terms = random_terms(group.gen_names, rng), random_terms(group.gen_names, rng)
        drawn.update(repr(terms).encode())
        p, q = (element_of_terms(group, field, t) for t in terms)
        ip, iq = image(p), image(q)
        product_ok = image(ring_product(group, p, q, field)) == matrix_product(group, ip, iq, field)
        if not product_ok or image(ring_sum(p, q, field)) != matrix_sum(ip, iq, field):
            return False, drawn.hexdigest()
    return True, drawn.hexdigest()


# -- thinned algebra growth -----------------------------------------------------


# Most coordinates one thinned_dims_at_level pass may use: three times what
# the default n=128 Grigorchuk run needs.
COORDINATE_CAP = 100_000
# Largest (rank + chunk masks) x coordinates a pass may reach: the basis rows
# and the chunk masks of a GF(2) pass hold up to that many bits.  The default
# n=128 Grigorchuk run over F2 (level 6, mapped at level 4) ends at
# (21,326 + 24,448) x 32,960, about 1.51e9.
RANK_COORDINATE_CAP = 2_000_000_000


class _CoordinateMap(dict):
    """Coordinate index -> coordinate index, filled on first lookup."""

    __slots__ = ("image",)

    def __init__(self, image):
        super().__init__()
        self.image = image

    def __missing__(self, c: int) -> int:
        out = self[c] = self.image(c)
        return out


class ThinnedGrowthResult(NamedTuple):
    dims: list[tuple[int, int]]  # (n, dim V^n)
    level: int
    stabilized: bool


def mapping_level(field: Field, level: int) -> int:
    """The level m at which :func:`thinned_dims_at_level` maps candidates
    for a level-``level`` table: two levels up over GF(2) from level 3 on,
    ``level`` itself otherwise (level 0 would build every candidate as an
    automaton, and over other fields the time is in the basis, not in the
    supports)."""
    return level - 2 if field.characteristic == 2 and level >= 3 else level


def thinned_dims_at_level(
    group: SelfSimilarGroup,
    n_max: int,
    field: Field,
    level: int,
    coord_index: dict,
) -> list[tuple[int, int]]:
    """dim V^n for n=1..n_max with elements vectorized at a fixed level.

    Coordinates are (row, col, canonical id of a group element), one per
    column: g has the coordinate (g(col), col, g|_col).  V is spanned by 1
    and the generators, and each length adds the candidates s*h for the
    elements h that were newly independent.  A candidate is never built as
    an automaton: it is the vector psi_m(s)*psi_m(h) at the mapping level
    m = :func:`mapping_level`, read coordinate by coordinate through the map
    of s, which sends (row, col, e) to (s(row), col, s|_row * e).  Each
    level-m image holds every section, so it is injective and candidates
    are deduplicated by level-m vector.  Its level-L support, L = ``level``
    and k = L - m, is the union of the chunks of its level-m coordinates:
    the chunk of (row, col, e) is the d^k level-L coordinates
    (row*d^k + e(w), col*d^k + w, e|_w), one per word w of length k, and
    over GF(2) it is kept as one int mask, built once.  Level-L coordinates
    are numbered in order of first use, candidate by candidate and column
    by column, whatever m is.  An h made as t*h' skips every s with s*t the
    identity or a generator u: s*h is then h' or u*h', offered one length
    earlier, so only vectors already seen are skipped.  ``coord_index``
    numbers level-L coordinates across passes and is filled with every one
    this pass used; more than ``COORDINATE_CAP`` of them, or a rank plus
    chunk masks times coordinates above ``RANK_COORDINATE_CAP``, raise
    :class:`ResourceError`.
    """
    basis = new_basis(field)
    gens = [group.gens[n] for n in group.gen_names]
    cells = list(coord_index)
    m = mapping_level(field, level)

    def index(cell: tuple) -> int:
        i = coord_index.get(cell)
        if i is None:
            if len(cells) >= COORDINATE_CAP:
                raise ResourceError(f"level-{level} pass exceeded cap {COORDINATE_CAP} on coordinates")
            i = coord_index[cell] = len(cells)
            cells.append(cell)
        return i

    chunks: list[int] = []  # level-m coordinate index -> its chunk mask
    if m == level:
        keys, mindex = cells, index
    else:
        keys, key_index, size = [], {}, group.d ** (level - m)

        def mindex(cell: tuple) -> int:
            i = key_index.get(cell)
            if i is None:
                row, col, e = cell
                row, col = row * size, col * size
                mask = 0
                for w, (x, f) in enumerate(group.level_sections(e, level - m)):
                    mask |= 1 << index((row + x, col + w, f))
                i = key_index[cell] = len(keys)
                keys.append(cell)
                chunks.append(mask)
            return i

    def vectorize(rid: int) -> tuple[int, ...]:
        return tuple(mindex((row, col, e)) for col, (row, e) in enumerate(group.level_sections(rid, m)))

    def coordinate_map(s: int) -> _CoordinateMap:
        entries = group.level_sections(s, m)

        def image(c: int) -> int:
            row, col, e = keys[c]
            s_row, section = entries[row]
            return mindex((s_row, col, group.multiply(section, e)))

        return _CoordinateMap(image)

    maps = [coordinate_map(s).__getitem__ for s in gens]
    after = group.reduced_steps(gens)
    seen = set()
    new: list[tuple[tuple[int, ...], int]] = []  # (vector, index of the generator that made it)

    def consider(vec: tuple[int, ...], t: int) -> None:
        if vec in seen:
            return
        seen.add(vec)
        if basis.insert(vec if m == level else reduce(or_, map(chunks.__getitem__, vec))):
            new.append((vec, t))
        if (basis.rank + len(chunks)) * len(cells) > RANK_COORDINATE_CAP:
            raise ResourceError(f"level-{level} pass exceeded cap {RANK_COORDINATE_CAP} on rank x coordinates")

    consider(vectorize(group.identity), -1)
    for t, g in enumerate(gens):
        consider(vectorize(g), t)
    dims = [(1, basis.rank)]
    for n in range(2, n_max + 1):
        frontier, new = new, []
        for h, t in frontier:
            for j in after[t]:
                consider(tuple(map(maps[j], h)), j)
        dims.append((n, basis.rank))
    return dims


def step_is_injective(group: SelfSimilarGroup, field: Field, cells) -> bool:
    """True when one recursion step is injective on the span of ``cells``.

    The step T sends a level-L cell (row, col, e) to the sum over letters x
    of the cells (row*d + e(x), col*d + x, e|_x), so that the level-(L+1)
    vector of g is T of its level-L vector.  Cells with different (row, col)
    have disjoint images, so T is injective on their span iff, for each
    (row, col), the level-1 images of that cell's entries are independent
    over ``field``.  When they are, every dependency among level-(L+1)
    vectors already holds at level L, and the two levels' tables agree.
    Independence depends only on the set of entries, so it is decided once
    per distinct entry set; a single entry is independent, since a level-1
    image is never zero.
    """
    blocks: dict = {}
    for row, col, e in cells:
        blocks.setdefault((row, col), []).append(e)
    for entries in {frozenset(es) for es in blocks.values() if len(es) > 1}:
        index: dict = {}
        basis = new_basis(field)
        for e in entries:
            image = group.level_sections(e, 1)
            if not basis.insert(
                [index.setdefault((x, r, f), len(index)) for x, (r, f) in enumerate(image)]
            ):
                return False
    return True


# Level past which thinned_growth stops raising the level unstabilized.
LEVEL_CAP = 14


def _start_level(group: SelfSimilarGroup, n_max: int) -> int:
    """The level thinned_growth starts at, a float guess from the
    contraction estimate."""
    est = group.contraction_estimate(length_cap=8, depth_cap=3)
    lam = float(est.ratio)
    if 0 < lam < 1:
        level_start = math.ceil(math.log(max(n_max, 2)) / math.log(1 / lam)) + 2
    else:
        level_start = 3
    # Stabilization raises the level anyway; starting low keeps the
    # cheap runs cheap.
    return min(level_start, 8)


def thinned_growth(group: SelfSimilarGroup, n_max: int, field: Field) -> ThinnedGrowthResult:
    """Thinned-algebra growth table with the level raised to stabilization.

    Ranks are nonincreasing in the level and eventually exact (the level
    algebras embed compatibly into the convolution algebra).  The level is
    raised until two consecutive levels give equal tables; ``stabilized``
    means only that this happened before ``LEVEL_CAP``, not that later
    levels could not drop further.  After each level's pass,
    :func:`step_is_injective` is tried on the cells it used; when it holds,
    the next level's table equals this one, so it is returned at that level
    without running its pass.  Otherwise the next level's pass runs.
    """
    level = _start_level(group, n_max)
    cells: dict = {}
    prev = thinned_dims_at_level(group, n_max, field, level, cells)
    while level < LEVEL_CAP:
        if step_is_injective(group, field, cells):
            return ThinnedGrowthResult(dims=prev, level=level + 1, stabilized=True)
        cells = {}
        nxt = thinned_dims_at_level(group, n_max, field, level + 1, cells)
        level += 1
        if nxt == prev:
            return ThinnedGrowthResult(dims=nxt, level=level, stabilized=True)
        prev = nxt
    return ThinnedGrowthResult(dims=prev, level=level, stabilized=False)


def loglog_slope(dims: list[tuple[int, int]], lo: int, hi: int) -> float:
    """Least-squares slope of log(dim) against log(n) on lo <= n <= hi."""
    pts = [(math.log(n), math.log(d)) for n, d in dims if lo <= n <= hi and d > 0]
    if len(pts) < 2:
        raise ValueError("need at least two points in the fit range")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den
