"""Exact growth of the convolution algebra of a subshift groupoid.

An algebra element spanned by products of length <= n is determined by
its values on germs (s^k, w) with |k| <= n and w seen through its
central window of length 2n+1.  That evaluation space is finite —
(2n+1) * p(2n+1) coordinates — so algebra growth is exact finite linear
algebra.  Every product of the generators {1, T, T^-1, D_x} evaluates to
a 0/1 vector supported in a single shift exponent k, which this module
exploits: candidates are (exponent, window subset) pairs and the rank
splits into one small elimination block per exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, RowBasis, SparseVector, new_basis
from .subshift import Language


class RadiusExhausted(RuntimeError):
    """A product's support left the window space (|k| > n)."""


class WindowSpace:
    """Coordinates (k, u): shift exponent k in [-n, n], u a length-(2n+1) factor."""

    def __init__(self, lang: Language, n: int):
        if 2 * n + 1 > lang.n_max:
            raise ValueError(f"language too shallow: need factors of length {2 * n + 1}")
        self.lang = lang
        self.n = n
        self.windows = lang.factors[2 * n + 1]
        self.p = len(self.windows)
        self.dim = (2 * n + 1) * self.p
        # letter_mask[j][x] = window ranks whose letter at position j-n is x
        self.letter_mask = [
            [
                frozenset(i for i, u in enumerate(self.windows) if u[j] == x)
                for x in range(lang.alphabet_size)
            ]
            for j in range(2 * n + 1)
        ]

    def index(self, k: int, urank: int) -> int:
        if not (-self.n <= k <= self.n):
            raise RadiusExhausted(f"radius exhausted: exponent {k} outside [-{self.n}, {self.n}]")
        return (k + self.n) * self.p + urank


@dataclass(frozen=True)
class Monomial:
    """A 0/1 evaluation vector: exponent k, set of window ranks where it is 1."""

    k: int
    support: frozenset


def apply_generator(space: WindowSpace, name: str, mono: Monomial) -> Monomial:
    """Left-multiply the algebra element by a generator, on evaluations.

    On values: (T f)(k, u) = f(k-1, u); (T^-1 f)(k, u) = f(k+1, u);
    (D_x f)(k, u) = f(k, u) if u has letter x at position k, else 0.
    """
    if name == "1":
        return mono
    if name == "T":
        k = mono.k + 1
        if k > space.n:
            raise RadiusExhausted(f"radius exhausted: exponent {k} outside window")
        return Monomial(k, mono.support)
    if name == "T-":
        k = mono.k - 1
        if k < -space.n:
            raise RadiusExhausted(f"radius exhausted: exponent {k} outside window")
        return Monomial(k, mono.support)
    if name.startswith("D:"):
        x = int(name[2:])
        mask = space.letter_mask[mono.k + space.n][x]
        return Monomial(mono.k, mono.support & mask)
    raise ValueError(f"unknown generator {name!r}")


def unit_monomial(space: WindowSpace) -> Monomial:
    """Evaluation of the algebra unit: 1 exactly on the units (k = 0)."""
    return Monomial(0, frozenset(range(space.p)))


def generator_monomials(space: WindowSpace) -> dict[str, Monomial]:
    """Evaluations of the generating set {1, T, T^-1, D_x}."""
    gens = {"1": unit_monomial(space)}
    gens["T"] = Monomial(1, frozenset(range(space.p)))
    gens["T-"] = Monomial(-1, frozenset(range(space.p)))
    for x in range(space.lang.alphabet_size):
        gens[f"D:{x}"] = Monomial(0, space.letter_mask[space.n][x])
    return gens


def generator_names(lang: Language) -> list[str]:
    return ["1", "T", "T-"] + [f"D:{x}" for x in range(lang.alphabet_size)]


class _BlockRank:
    """Rank accumulator split by exponent block (monomials never mix blocks)."""

    def __init__(self, space: WindowSpace, field: Field):
        self.space = space
        self.field = field
        self.blocks: dict[int, object] = {}

    def insert(self, mono: Monomial) -> bool:
        if not mono.support:
            return False
        blk = self.blocks.get(mono.k)
        if blk is None:
            blk = self.blocks[mono.k] = new_basis(self.field, self.space.p)
        return blk.insert_support(mono.support)

    @property
    def rank(self) -> int:
        return sum(b.rank for b in self.blocks.values())


def growth_dims(lang: Language, n_max: int, field: Field) -> list[tuple[int, int]]:
    """Exact dim V^n for n = 1..n_max, V = span{1, T, T^-1, D_x}.

    Levelwise closure: V^(m+1) = V^m + sum_g g * (new part of V^m), which
    spans the same space as the full product set.
    """
    space = WindowSpace(lang, n_max)
    names = generator_names(lang)
    rank = _BlockRank(space, field)
    seen: set = set()
    new: list[Monomial] = []
    for mono in generator_monomials(space).values():
        key = (mono.k, mono.support)
        if key in seen:
            continue
        seen.add(key)
        if rank.insert(mono):
            new.append(mono)
    dims = [(1, rank.rank)]
    for n in range(2, n_max + 1):
        frontier = []
        for mono in new:
            for name in names:
                if name == "1":
                    continue
                cand = apply_generator(space, name, mono)
                key = (cand.k, cand.support)
                if key in seen:
                    continue
                seen.add(key)
                if rank.insert(cand):
                    frontier.append(cand)
        new = frontier
        dims.append((n, rank.rank))
    return dims


def bruteforce_dims(lang: Language, n_max: int, field: Field) -> list[tuple[int, int]]:
    """Rank of all explicit generator products, evaluated straight from the
    germ-composition definition — an oracle independent of :func:`growth_dims`."""
    n = n_max
    windows = lang.factors[2 * n + 1]
    p = len(windows)
    names = generator_names(lang)

    def evaluate(word):
        # value at (k, u): simulate the product from the right at the point
        # with central window u; D_x tests the letter at the running shift.
        support = []
        for ui, u in enumerate(windows):
            j = 0
            alive = True
            for tok in reversed(word):
                if tok == "T":
                    j += 1
                elif tok == "T-":
                    j -= 1
                elif tok.startswith("D:"):
                    if u[j + n] != int(tok[2:]):
                        alive = False
                        break
            if alive:
                support.append((j + n) * p + ui)
        return support

    basis = new_basis(field, (2 * n + 1) * p)
    words = [[]]
    dims = []
    for m in range(1, n_max + 1):
        words = [w + [t] for w in words for t in names]
        for w in words:
            basis.insert_support(evaluate(w))
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


def module_apply(tokens, vec: dict, letters, radius: int, field: Field) -> dict:
    """Apply a product of generators to a module vector.

    The module has basis {e_j : |j| <= radius}; ``vec`` maps j to a
    scalar.  Actions: T e_j = e_{j+1}, T^-1 e_j = e_{j-1},
    D_x e_j = e_j if the point's letter at j is x, else 0.  ``letters``
    is a callable giving the point's letter at a (possibly negative)
    position.  ``tokens`` is the product left-to-right; the rightmost
    factor acts first.
    """
    zero = field.zero()
    cur = {j: c for j, c in vec.items() if c != zero}
    for name in reversed(list(tokens)):
        if name == "1":
            continue
        nxt: dict = {}
        if name == "T" or name == "T-":
            step = 1 if name == "T" else -1
            for j, c in cur.items():
                jj = j + step
                if abs(jj) > radius:
                    raise RadiusExhausted(f"module window exhausted at index {jj}")
                nxt[jj] = field.add(nxt.get(jj, zero), c)
        elif name.startswith("D:"):
            x = int(name[2:])
            for j, c in cur.items():
                if letters(j) == x:
                    nxt[j] = field.add(nxt.get(j, zero), c)
        else:
            raise ValueError(f"unknown generator {name!r}")
        cur = {j: c for j, c in nxt.items() if c != zero}
    return cur


def module_growth(lang: Language, n_max: int, field: Field) -> list[tuple[int, int]]:
    """dim V^n . delta_0 for n = 0..n_max, for the module at a point of the subshift.

    The point is represented through a central window (a factor of length
    2*n_max+1), which determines every D_x action a length-<=n_max
    product can see.
    """
    if 2 * n_max + 1 > lang.n_max:
        raise ValueError(f"language too shallow: need factors of length {2 * n_max + 1}")
    window = lang.factors[2 * n_max + 1][0]

    def letters(j: int) -> int:
        return window[j + n_max]

    names = [t for t in generator_names(lang) if t != "1"]
    dim = 2 * n_max + 1
    basis = RowBasis(field, dim)
    one = field.one()

    def insert(vec: dict) -> bool:
        return basis.insert(SparseVector(dim, {j + n_max: c for j, c in vec.items()}, field))

    new = [{0: one}]
    insert(new[0])
    out = [(0, basis.rank)]
    for n in range(1, n_max + 1):
        frontier = []
        for vec in new:
            for name in names:
                cand = module_apply([name], vec, letters, n_max, field)
                if cand and insert(cand):
                    frontier.append(cand)
        new = frontier
        out.append((n, basis.rank))
    return out


# -- expansiveness -------------------------------------------------------------


@dataclass(frozen=True)
class ExpansiveReport:
    n: int
    window_count: int
    atom_count: int


def atom_key(letters, n: int) -> frozenset:
    """Membership pattern of a point in the domains of all products of
    <= n shift bisections and their inverses.

    ``letters(k)`` must be defined for k in [-n, n-1].  The key is the
    set of surviving generator sequences (in application order): S_x
    needs letter x at the current origin and shifts it right, S_x^-1
    needs letter x just left of the origin and shifts it left.
    """
    accepted = set()
    stack = [((), 0)]
    while stack:
        seq, o = stack.pop()
        if len(seq) >= n:
            continue
        # Only the token matching the letter at the origin survives, so
        # exactly two extensions are ever viable.
        for tok, no in ((("S", letters(o)), o + 1), (("S-", letters(o - 1)), o - 1)):
            nseq = seq + (tok,)
            accepted.add(nseq)
            stack.append((nseq, no))
    return frozenset(accepted)


def expansive_certificate(lang: Language, n: int) -> ExpansiveReport:
    """Partition the length-2n windows into atoms of the <=n-step domains."""
    if 2 * n > lang.n_max:
        raise ValueError(f"language too shallow for n={n}")
    # Every atom key of a window w holds the all-S path, which spells w[n:],
    # and the all-S^-1 path, which spells w[:n] reversed.  Those two paths
    # give back w, so atoms are in bijection with these pairs of paths.
    paths = {(w[n:], w[n - 1 :: -1]) for w in lang.factors[2 * n]}
    return ExpansiveReport(n=n, window_count=lang.complexity(2 * n), atom_count=len(paths))


def separation_radius(letters_a, letters_b, n_cap: int):
    """Smallest n <= n_cap at which the two points' atom keys differ, or None."""
    for n in range(1, n_cap + 1):
        if atom_key(letters_a, n) != atom_key(letters_b, n):
            return n
    return None
