"""Exact growth of the convolution algebra of a subshift groupoid.

An algebra element spanned by products of length <= n is determined by
its values on germs (s^k, w) with |k| <= n and w seen through its
central window of length 2n+1.  Every product of the generators
{1, T, T^-1, D_x} evaluates to a 0/1 vector supported in a single shift
exponent k, which this module exploits: :func:`growth_dims` holds each
candidate as a plain (exponent, int bitmask of windows) pair, on which T
and T^-1 move the exponent and D_x masks by a letter, and the rank splits
into one small elimination block per exponent.  A product ending at exponent k walks from 0 to k and
tests a letter only where it stands, so it sees only the positions J_k of
:class:`WindowSpace`; block k has one column per distinct restriction
u[J_k], at its first window, not one per window.  The evaluation space
therefore has at most sum_k p(|J_k|) <= (2n+1) * p(2n+1) coordinates,
and algebra growth is exact finite linear algebra.

When the window set W is closed under reversal (Thue-Morse, every
Sturmian and episturmian language), Phi(f)(k, u) = f(-k, reversed(u)) is
a linear bijection of the evaluation space.  It fixes 1 and every D_x,
since reversal sends the letter at position k to position -k, and it
swaps T with T^-1, since Phi(T f)(k, u) = f(-k-1, reversed(u)) =
(T^-1 Phi f)(k, u).  So Phi maps V^m onto V^m and block k onto block -k,
and dim V^m = dim V^m_0 + 2 * sum_(k>0) dim V^m_k: :func:`growth_dims`
ranks only the blocks k >= 0.
"""

from __future__ import annotations

from itertools import product

from .errors import ResourceError
from .fields import Field, new_basis, set_bits
from .subshift import Language


# Most generator words :func:`bruteforce_dims` evaluates at its top level;
# (3 + 2)^8 = 390,625 lets it reach n = 8 on two letters.  The words are
# streamed, so the cap bounds time, not memory.
ORACLE_CAP = 400_000


def _tested_positions(k: int, n: int) -> tuple[int, int]:
    """Offsets [lo, hi) from the centre of J_k, the positions a product of
    at most n generators ending at exponent k can test; see :class:`WindowSpace`."""
    t = (n - 1 - abs(k)) // 2
    return (min(0, k) - t, max(0, k) + t + 1) if t >= 0 else (0, 0)


class WindowSpace:
    """Coordinates (k, u): shift exponent k in [-n, n], u a length-(2n+1) factor.

    A set of windows is an int bitmask, bit i for window i in sorted order;
    ``letter_mask[j][x]`` holds the windows with letter x at position j - n.
    A product of at most n generators that ends at exponent k tests a
    letter at position j only if it walks from 0 to j and on to k with one
    generator left for the test: |j| + |k - j| <= n - 1.  Those positions
    are J_k = [min(0, k) - t, max(0, k) + t] with t = (n - 1 - |k|) // 2,
    and none when t < 0.  So the product's support is a union of fibres
    of u -> u[J_k], and ``block_reps[k + n]`` holds each fibre's first
    window, its representative: representatives increase with the order in
    which their fibres first appear among the windows.

    The same holds at every length m <= n with J_k(m) in place of J_k: a
    product of at most m generators is a function of u[J_k(m)], and each
    u[J_k(m)] is a factor of length |J_k(m)| because the language is
    factor-closed.  So the products of length <= m ending at exponent k
    span at most ``rank_bound[m][k + n]`` = p(|J_k(m)|) dimensions.

    ``mirror[i]`` is the rank of window i reversed, and ``mirror`` is
    None unless the window set is closed under reversal, the one condition
    under which the reversal Phi of the module docstring is defined.  J_-k
    is J_k reflected about the centre, so p(|J_k(m)|) is symmetric in k
    and Phi maps the fibres of block k onto those of block -k.
    """

    def __init__(self, lang: Language, n: int):
        if 2 * n + 1 > lang.n_max:
            raise ValueError(f"language too shallow: need factors of length {2 * n + 1}")
        self.lang = lang
        self.n = n
        self.windows = windows = lang.factors_at(2 * n + 1)
        self.p = p = len(windows)
        # Column j of the joined windows holds letter j of every window, in
        # window order; a table sending letter x to "1" and every other byte
        # to "0" turns it into the bits of letter_mask[j][x], lowest last.
        flat = b"".join(windows)
        tables = [bytes(49 if c == x else 48 for c in range(256)) for x in range(lang.alphabet_size)]
        self.letter_mask = []
        for j in range(2 * n + 1):
            col = flat[j :: 2 * n + 1]
            self.letter_mask.append([int(col.translate(table)[::-1], 2) for table in tables])
        self.block_reps = []
        for lo, hi in (_tested_positions(k, n) for k in range(-n, n + 1)):
            cuts = [u[lo + n : hi + n] for u in windows]
            # Filled from the last window back, each fibre keeps its first.
            first = dict(zip(reversed(cuts), range(p - 1, -1, -1)))
            self.block_reps.append(sum(1 << i for i in first.values()))
        # |J_k(m)| = |k| + 2t + 1 = m - (m - 1 - |k|) % 2 when |k| < m, else 0.
        counts = lang.counts
        self.rank_bound = [
            [counts[m - (m - 1 - abs(k)) % 2] if abs(k) < m else counts[0] for k in range(-n, n + 1)]
            for m in range(n + 1)
        ]
        rank_of = dict(zip(windows, range(p)))
        mirror = [rank_of.get(u[::-1]) for u in windows]
        self.mirror = None if None in mirror else mirror


def growth_dims(lang: Language, n_max: int, field: Field) -> list[tuple[int, int]]:
    """Exact dim V^n for n = 1..n_max, V = span{1, T, T^-1, D_x}.

    Levelwise closure: V^(m+1) = V^m + sum_g g * (new part of V^m), which
    spans the same space as the full product set.  A candidate is the pair
    (k, mask) of its exponent and its support, a bitmask over the windows,
    and the generators act on it as (T f)(k, u) = f(k-1, u), (T^-1 f)(k, u)
    = f(k+1, u) and (D_x f)(k, u) = f(k, u) if u has letter x at position
    k, else 0: T and T^-1 move k by one, and D_x masks by
    ``letter_mask[k + n][x]``.  The new part of level m - 1 holds products
    of at most m - 1 <= n - 1 generators, so |k| <= n - 1 and one more
    shift stays within the window radius n.  D_x for the last letter x is
    not applied to a candidate f: D_x f = f - sum_(y != x) D_y f, since
    sum_x D_x = 1 at f's exponent, and the right side is already spanned
    once the level's other moves are inserted.

    The candidates of exponent k are ranked in a basis of their own, over
    the representatives ``block_reps[k + n]`` of :class:`WindowSpace`: a
    union of fibres is fixed by the representatives it holds, and linear
    combinations of such supports are constant on fibres, so the rank of
    the rows ``mask & block_reps[k + n]`` is the rank over windows.

    Block k stops taking inserts once it is full: at level n every
    candidate of exponent k is a function of u[J_k(n)], so the block spans
    at most p(|J_k(n)|) dimensions (``WindowSpace.rank_bound``; the
    bound needs only that the language is factor-closed).  When the block
    has that rank, the candidate lies in its span and inserting it would
    return False, so skipping it changes no rank and no frontier.

    When the window set is closed under reversal (``WindowSpace.mirror``),
    the loop folds by the reversal Phi of the module docstring.  Phi maps
    V^m onto V^m and block k onto block -k, so every candidate with k < 0
    is dropped and the rank counts blocks k > 0 twice.  Block 0 is
    Phi-invariant, and its level-(m+1) candidates include T * V^m_-1 =
    Phi(T^-1 * V^m_1): the loop reaches those only as the mirror twin
    (support mapped through ``mirror``) of a candidate T^-1 * f at k = 0,
    so each new candidate at k = 0 is followed by its twin.  The twin lies
    in V^(m+1)_0, so offering it is harmless when it is not needed.  The
    block bound holds as before, since p(|J_k(m)|) is symmetric in k.  A
    language that is not closed takes the same loop with nothing dropped.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    space = WindowSpace(lang, n_max)
    n = n_max
    mirror = space.mirror
    letter_mask = space.letter_mask
    block_reps = space.block_reps
    tests = range(lang.alphabet_size - 1)
    blocks: dict[int, object] = {}
    seen: set = set()

    def offer(k: int, mask: int, bound: list, out: list) -> None:
        if mirror is not None and k < 0 or (k, mask) in seen:
            return
        seen.add((k, mask))
        if mask:
            blk = blocks.get(k)
            if blk is None:
                blk = blocks[k] = new_basis(field)
            if blk.rank < bound[k + n] and blk.insert(mask & block_reps[k + n]):
                out.append((k, mask))
        if mirror is not None and k == 0:
            offer(0, sum(1 << mirror[i] for i in set_bits(mask)), bound, out)

    def rank() -> int:
        fold = 1 if mirror is None else 2
        return sum(b.rank * (fold if k > 0 else 1) for k, b in blocks.items())

    every = (1 << space.p) - 1
    new: list[tuple[int, int]] = []
    for k, mask in [(0, every), (1, every), (-1, every)] + [(0, x_mask) for x_mask in letter_mask[n]]:
        offer(k, mask, space.rank_bound[1], new)
    dims = [(1, rank())]
    for m in range(2, n_max + 1):
        frontier: list[tuple[int, int]] = []
        bound = space.rank_bound[m]
        for k, mask in new:
            offer(k + 1, mask, bound, frontier)
            offer(k - 1, mask, bound, frontier)
            row = letter_mask[k + n]
            for x in tests:
                offer(k, mask & row[x], bound, frontier)
        new = frontier
        dims.append((m, rank()))
    return dims


def bruteforce_dims(lang: Language, n_max: int, field: Field) -> list[tuple[int, int]]:
    """Rank of all explicit generator products, evaluated straight from the
    germ-composition definition — an oracle independent of :func:`growth_dims`.

    Every word of every length m <= n_max is evaluated, in
    ``itertools.product`` order, and none is kept: a top level of more
    than ``ORACLE_CAP`` words raises :class:`ResourceError` before any is
    evaluated.  A word's value at (k, u) comes from simulating it from the
    right at the point with central window u, where D_x tests the letter
    at the running shift j.  The shifts do not depend on u, so one pass
    simulates the word at every window at once: ``alive`` is the bitmask
    of the windows that pass every test so far, and the word is 1 exactly
    at coordinates (j + n) * p + i for the windows i alive at its final
    shift j.  A support already inserted is skipped, since a repeated
    vector cannot raise the rank.
    """
    n = n_max
    gens = [(0, None), (1, None), (-1, None)] + [(0, x) for x in range(lang.alphabet_size)]
    if len(gens) ** n > ORACLE_CAP:
        raise ResourceError(
            f"the oracle would evaluate {len(gens) ** n} generator words at n={n}, over its cap {ORACLE_CAP}"
        )
    windows = lang.factors_at(2 * n + 1)
    p = len(windows)
    # letter[j + n][x]: the windows with letter x at position j
    letter = [[0] * lang.alphabet_size for _ in range(2 * n + 1)]
    for i, u in enumerate(windows):
        for masks, x in zip(letter, u):
            masks[x] |= 1 << i
    every = (1 << p) - 1

    basis = new_basis(field)
    inserted = set()
    dims = []
    for m in range(1, n_max + 1):
        for word in product(gens, repeat=m):
            j = 0
            alive = every
            for step, x in reversed(word):
                if x is None:
                    j += step
                else:
                    alive &= letter[j + n][x]
            support = alive << (j + n) * p
            if support not in inserted:
                inserted.add(support)
                basis.insert(support)
        dims.append((m, basis.rank))
    return dims


def semigroup_dims(lang: Language, n_max: int) -> list[tuple[int, int]]:
    """Dimension of the degree-<=n part of the semigroup algebra: sum of p(k)."""
    if n_max > lang.n_max:
        raise ValueError(f"language too shallow for n_max={n_max}")
    total = 0
    out = []
    for n in range(n_max + 1):
        total += lang.complexity(n)
        out.append((n, total))
    return out


# -- the module kG_w ----------------------------------------------------------


def module_growth(lang: Language, n_max: int) -> list[tuple[int, int]]:
    """dim V^n . e_0 for n = 0..n_max, for the module at a point of the subshift.

    The module has basis {e_j}, j an integer position of the point: T and
    T^-1 send e_j to e_(j+1) and e_(j-1), and D_x sends e_j to e_j or to 0,
    by the point's letter at j.  So every product of generators sends e_0
    to a basis vector or to 0, D_x never reaches a new position, and
    V^n . e_0 is spanned by the e_j at the positions j reached from 0 by
    at most n shifts.  Its dimension counts those positions, over any
    field and at any point.  The point's central window of length
    2*n_max+1 determines every D_x action a length-<=n_max product can
    see, so the language must hold factors of that length.
    """
    if 2 * n_max + 1 > lang.n_max:
        raise ValueError(f"language too shallow: need factors of length {2 * n_max + 1}")
    reached = {0}
    frontier = {0}
    out = [(0, len(reached))]
    for n in range(1, n_max + 1):
        frontier = {j + step for j in frontier for step in (1, -1)} - reached
        reached |= frontier
        out.append((n, len(reached)))
    return out


# -- expansiveness -------------------------------------------------------------


def expansive_certificate(lang: Language, n: int) -> int:
    """Number of atoms of the <=n-step domains on the length-2n windows: p(2n).

    A window's atom is the set of <=n-step paths of shift bisections S_x
    and S_x^-1 that are defined at it.  That set holds the all-S path,
    which spells w[n:], and the all-S^-1 path, which spells w[:n]
    reversed.  Those two paths give back w, so the atoms are in bijection
    with the windows.
    """
    return lang.complexity(2 * n)
