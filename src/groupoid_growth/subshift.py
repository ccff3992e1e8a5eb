"""Factor languages, subword complexity p(n), and the subshift complexity p(2r).

A language is read off a list of witness words: finite words whose factors
of length <= ``n_max`` are exactly its factors.  The source chooses them
(:meth:`~groupoid_growth.words.WordSource.witnesses`).  For a primitive,
growing substitution and for a Sturmian word they are certified to hold
every factor of the source, and the language is marked ``exact``; when the
budget is too small for that, the builder raises instead of returning a
truncated table.  Every other source gives one prefix of ``budget``
letters, which is exact only when it covers the whole language (an
eventually periodic word read one period past its preperiod, or a whole
explicit word).  An inexact language records the largest length at which
right-extendability held instead of claiming more.

All factor sets come from one downward pass over the lengths.  In a word
P of length L, a length-n factor that starts before position L-n is the
first n letters of the length-(n+1) factor that starts at the same place,
and the only other length-n factor is the suffix P[L-n:].  So the factors
of length ``n_max`` are read off the witnesses in one scan, and each
shorter class is the next longer one with the last letter of each factor
dropped, plus the suffix of each witness.  In a one-prefix language the
suffix is also the only factor that can fail to extend to the right,
which gives ``extendable_up_to`` from the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import WordSource


class LanguageError(ValueError):
    pass


class FactorCapExceeded(LanguageError):
    """A language would hold more than ``FACTOR_CAP`` factors."""


# Most nonempty factors one language may hold, all lengths together.
FACTOR_CAP = 2_000_000


@dataclass
class Language:
    """Length-indexed factor sets of a subshift, up to ``n_max``.

    ``exact`` says the sets are certified to be every factor of the source
    up to ``n_max``.  ``prefix_len`` is the number of witness letters they
    were read from.  ``extendable_up_to`` is the largest n such that every
    factor of each length below n extends on the right within the
    witnesses; beyond it an inexact enumeration may be budget-truncated.
    An exact language of an infinite word has ``extendable_up_to == n_max``,
    since every factor of such a word extends on the right.
    """

    alphabet_size: int
    factors: list[list[bytes]]  # factors[n] sorted
    n_max: int
    prefix_len: int
    extendable_up_to: int
    finite_source: bool
    exact: bool

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


def build_language(source: WordSource, n_max: int, prefix_budget: int) -> Language:
    """Every factor of length <= n_max of the source's witness words, read
    within ``prefix_budget`` letters.

    Raises :class:`~groupoid_growth.words.BudgetExceeded` when the source
    can certify its language but not within the budget.
    """
    if n_max < 1:
        raise LanguageError("n_max must be >= 1")
    if prefix_budget < n_max:
        raise LanguageError(f"prefix budget {prefix_budget} smaller than n_max {n_max}")
    witnesses, exact = source.witnesses(n_max, prefix_budget)
    return language_from_witnesses(
        witnesses, n_max, source.alphabet.size, exact=exact, finite_source=source.finite_length is not None
    )


def language_from_witnesses(
    witnesses: list[bytes], n_max: int, alphabet_size: int, *, exact: bool, finite_source: bool
) -> Language:
    """The factors of length <= n_max of the witness words, in one downward pass."""
    if any(len(w) < n_max for w in witnesses):
        raise LanguageError("source ended before n_max letters were produced")
    level = {w[i : i + n_max] for w in witnesses for i in range(len(w) - n_max + 1)}
    sets = [level]
    count = len(level)  # nonempty factors so far
    extendable = n_max
    for n in range(n_max - 1, -1, -1):
        if count > FACTOR_CAP:
            raise FactorCapExceeded(f"factor enumeration exceeded cap {FACTOR_CAP}")
        level = {f[:-1] for f in level}
        for w in witnesses:
            suffix = w[len(w) - n :]
            if suffix not in level:  # it does not extend; the last such n is the least
                extendable = n
                level.add(suffix)
        count += len(level)
        sets.append(level)
    sets.reverse()

    lang = Language(
        alphabet_size=alphabet_size,
        factors=[sorted(s) for s in sets],
        n_max=n_max,
        prefix_len=sum(map(len, witnesses)),
        extendable_up_to=extendable,
        finite_source=finite_source,
        exact=exact,
    )
    # Factor closure: every factor's prefix is a factor by construction, so
    # only its suffix is checked (interior subwords follow by induction).
    # This is a structural check on the enumeration itself and must never fail.
    for n in range(1, n_max + 1):
        assert {f[1:] for f in sets[n]} <= sets[n - 1], f"closure broken at length {n}"
    if not lang.finite_source:
        for n in range(1, min(lang.extendable_up_to, n_max)):
            assert lang.complexity(n + 1) >= lang.complexity(n)
    return lang
