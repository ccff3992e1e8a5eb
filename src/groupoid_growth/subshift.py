"""Factor languages, subword complexity p(n), and the subshift complexity p(2r).

The language of a source is enumerated from an explicit finite prefix.
Completeness cannot be certified from finite data, so the builder records
the largest length at which right-extendability held instead of claiming
more; for uniformly recurrent sources with an adequate budget the
enumeration is the full factor set.

All factor sets come from one downward pass over the lengths.  In a
prefix P of length L, a length-n factor that starts before position L-n is
the first n letters of the length-(n+1) factor that starts at the same
place, and the only other length-n factor is the suffix P[L-n:].  So the
factors of length ``n_max`` are read off P in one scan, and each shorter
class is the next longer one with the last letter of each factor dropped,
plus that suffix.  The suffix is also the only factor that can fail to
extend to the right, which gives ``extendable_up_to`` from the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import WordSource


class LanguageError(ValueError):
    pass


# Most nonempty factors one language may hold, all lengths together.
FACTOR_CAP = 2_000_000


@dataclass
class Language:
    """Length-indexed factor sets of a subshift, up to ``n_max``.

    ``extendable_up_to`` is the largest n such that every factor of each
    length below n extends on the right within the enumerated prefix;
    beyond it the enumeration may be budget-truncated.
    """

    alphabet_size: int
    factors: list[list[bytes]]  # factors[n] sorted
    n_max: int
    prefix_len: int
    extendable_up_to: int
    finite_source: bool
    factor_sets: list[set[bytes]] = field(repr=False, compare=False)  # factors[n] as a set

    def complexity(self, n: int) -> int:
        """p(n), the number of distinct length-n factors."""
        if not (0 <= n <= self.n_max):
            raise LanguageError(f"complexity queried at n={n} beyond n_max={self.n_max}")
        return len(self.factors[n])

    def delta_formula(self, r: int) -> int:
        """Groupoid complexity of the subshift: delta(r) = p(2r)."""
        if r < 0 or 2 * r > self.n_max:
            raise LanguageError(f"delta_formula needs 2r <= n_max; got r={r}, n_max={self.n_max}")
        return self.complexity(2 * r)

    def contains(self, word: bytes) -> bool:
        n = len(word)
        return n <= self.n_max and word in self.factor_sets[n]


def build_language(source: WordSource, n_max: int, prefix_budget: int) -> Language:
    """Enumerate all factors of length <= n_max seen in the prefix of the source."""
    if n_max < 1:
        raise LanguageError("n_max must be >= 1")
    if prefix_budget < n_max:
        raise LanguageError(f"prefix budget {prefix_budget} smaller than n_max {n_max}")
    prefix = source.prefix(prefix_budget)
    if len(prefix) < n_max:
        raise LanguageError("source ended before n_max letters were produced")
    L = len(prefix)
    level = {prefix[i : i + n_max] for i in range(L - n_max + 1)}
    sets = [level]
    count = len(level)  # nonempty factors so far
    extendable = n_max
    for n in range(n_max - 1, -1, -1):
        if count > FACTOR_CAP:
            raise LanguageError(f"factor enumeration exceeded cap {FACTOR_CAP}")
        level = {f[:-1] for f in level}
        suffix = prefix[L - n :]
        if suffix not in level:  # it does not extend; the last such n is the least
            extendable = n
            level.add(suffix)
        count += len(level)
        sets.append(level)
    sets.reverse()

    lang = Language(
        alphabet_size=source.alphabet.size,
        factors=[sorted(s) for s in sets],
        n_max=n_max,
        prefix_len=L,
        extendable_up_to=extendable,
        finite_source=source.finite_length is not None,
        factor_sets=sets,
    )
    # Factor closure: the boundary subwords of every factor must be factors
    # (interior subwords follow by induction).  This is a structural check
    # on the enumeration itself and must never fail.
    for n in range(1, n_max + 1):
        for f in lang.factors[n]:
            assert lang.contains(f[:-1]) and lang.contains(f[1:]), f"closure broken at {f!r}"
    if not lang.finite_source:
        for n in range(1, min(lang.extendable_up_to, n_max)):
            assert lang.complexity(n + 1) >= lang.complexity(n)
    return lang


def recurrence_check(lang: Language, source: WordSource, n: int, R: int) -> bool:
    """Bounded-scale uniform-recurrence certificate.

    True iff every length-n factor occurs in every length-(R+n) window of
    the prefix the language was built from.
    """
    if not (1 <= n <= lang.n_max):
        raise LanguageError(f"n={n} out of range for this language")
    prefix = source.prefix(lang.prefix_len)
    L = len(prefix)
    if L < R + n:
        return True  # no full window to inspect
    occurrences: dict[bytes, list[int]] = {f: [] for f in lang.factors[n]}
    for i in range(L - n + 1):
        w = prefix[i : i + n]
        if w in occurrences:
            occurrences[w].append(i)
    last_window_start = L - (R + n)
    for occs in occurrences.values():
        if not occs or occs[0] > R:
            return False
        if any(b - a > R + 1 for a, b in zip(occs, occs[1:])):
            return False
        if occs[-1] < last_window_start:
            return False
    return True
