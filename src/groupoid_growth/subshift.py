"""Factor languages and subword complexity p(n), whence a subshift's delta(r) = p(2r).

A language is read off a list of witness words: finite words whose factors
of length <= ``n_max`` are exactly its factors.  The source chooses them
(:meth:`~groupoid_growth.words.WordSource.witnesses`).  For a primitive,
growing substitution and for a Sturmian word they are certified to hold
every factor of the source, and the language is marked ``exact``, as it
is for an eventually periodic word read n letters past its preperiod and
one period and for a whole explicit word; when the budget is too small for
that, the builder raises instead of returning a truncated table.  Toeplitz
skeletons and the other substitutions give one prefix of ``budget``
letters, which is not exact.  The budget defaults to max(8192, 40 n_max^2)
letters in :func:`build_language`, its one home.

Every factor class comes from one sorted list of *heads*: the distinct
words w[i : i + n_max] over every witness w and every start i, so the last
n_max - 1 heads of a witness are its short suffixes.  Every factor of
length n <= n_max is the length-n prefix of the head that starts where it
does, and the heads that share a length-n prefix are contiguous in sorted
order.  With lcp the length of the longest common prefix of a head and the
one before it, the length-n factors are therefore the prefixes h[:n] of the
heads h with lcp < n <= len(h), met already sorted (suffix sorting and
adjacent LCP counting: Manber-Myers 1993, Kasai et al. 2001).  So each
head adds one factor at every length in (lcp, len(h)], and p(n) for every
n <= n_max comes from one difference pass over those ranges, with no
factor built.  A :class:`Language` keeps the heads, their lcps and the
counts; the factors of one length are built only when a caller asks for
them (:meth:`Language.factors_at`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from .errors import ResourceError
from .words import WordSource


# Most nonempty factors one language may hold, all lengths together.
FACTOR_CAP = 2_000_000


class Language:
    """Subword complexity of a subshift up to ``n_max``, and its factors of
    any one length on request.

    ``heads`` are the sorted witness heads and ``lcps[j]`` the length of
    the common prefix of ``heads[j - 1]`` and ``heads[j]`` (0 for j = 0);
    ``counts[n]`` is p(n), read off them without building a factor (see the
    module docstring).  ``exact`` says the factors are certified to be every
    factor of the source up to ``n_max``.  ``prefix_len`` is the number of
    witness letters they were read from.
    """

    __slots__ = (
        "alphabet_size",
        "heads",
        "lcps",
        "counts",
        "n_max",
        "prefix_len",
        "exact",
    )

    def __init__(
        self,
        alphabet_size: int,
        heads: list[bytes],
        lcps: list[int],
        counts: list[int],  # counts[n] = p(n), n = 0 .. n_max
        n_max: int,
        prefix_len: int,
        exact: bool,
    ):
        self.alphabet_size = alphabet_size
        self.heads = heads
        self.lcps = lcps
        self.counts = counts
        self.n_max = n_max
        self.prefix_len = prefix_len
        self.exact = exact

    def _check_length(self, n: int, what: str) -> None:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"{what} queried at n={n} beyond n_max={self.n_max}")

    def complexity(self, n: int) -> int:
        """p(n), the number of distinct length-n factors."""
        self._check_length(n, "complexity")
        return self.counts[n]

    def factors_at(self, n: int) -> list[bytes]:
        """The length-n factors, sorted, built from the heads on each call."""
        self._check_length(n, "factors")
        if n == 0:
            return [b""]
        return [h[:n] for h, lcp in zip(self.heads, self.lcps) if lcp < n <= len(h)]

    @property
    def factors(self) -> list[list[bytes]]:
        """Every factor class: ``factors[n] == factors_at(n)`` for n <= n_max."""
        return [self.factors_at(n) for n in range(self.n_max + 1)]


def build_language(source: WordSource, n_max: int, prefix_budget: int | None = None) -> Language:
    """The language up to length n_max of the source's witness words, read
    within ``prefix_budget`` letters, by default max(8192, 40 n_max^2).

    Raises :class:`~groupoid_growth.errors.ResourceError` when the source
    can certify its language but not within the budget.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if prefix_budget is None:
        prefix_budget = max(8192, 40 * n_max * n_max)
    if prefix_budget < n_max:
        raise ValueError(f"prefix budget {prefix_budget} smaller than n_max {n_max}")
    witnesses, exact = source.witnesses(n_max, prefix_budget)
    return language_from_witnesses(witnesses, n_max, source.alphabet_size, exact=exact)


def language_from_witnesses(witnesses: list[bytes], n_max: int, alphabet_size: int, *, exact: bool) -> Language:
    """The language of the witness words up to length n_max: their sorted
    heads, the lcps and p(n) (see the module docstring)."""
    if any(len(w) < n_max for w in witnesses):
        raise ValueError("source ended before n_max letters were produced")
    heads = sorted({w[i : i + n_max] for w in witnesses for i in range(len(w))})
    # lcps[j] = lcp(heads[j - 1], heads[j]), from the highest differing byte
    # of the heads zero-padded to n_max letters, capped by the shorter one.
    keys = [int.from_bytes(h.ljust(n_max, b"\0"), "big") for h in heads]
    lcps = [0] + [
        min(len(a), len(b), n_max - ((x ^ y).bit_length() + 7) // 8)
        for a, b, x, y in zip(heads, heads[1:], keys, keys[1:])
    ]
    # Head h adds one factor at each length in (lcp, len(h)].
    steps = [0] * (n_max + 2)
    for h, lcp in zip(heads, lcps):
        steps[lcp + 1] += 1
        steps[len(h) + 1] -= 1
    counts = [1] + list(accumulate(steps[1 : n_max + 1]))
    if sum(counts[1:]) > FACTOR_CAP:
        raise ResourceError(f"factor enumeration exceeded cap {FACTOR_CAP}")
    # Factor closure: every factor is a prefix of a head, so every head's
    # tail must be a prefix of a head too (interior subwords follow by
    # induction).  This is a structural check on the enumeration itself
    # and must never fail.
    for h in heads:
        assert heads[bisect_left(heads, h[1:])].startswith(h[1:]), f"closure broken at head {h!r}"
    return Language(
        alphabet_size=alphabet_size,
        heads=heads,
        lcps=lcps,
        counts=counts,
        n_max=n_max,
        prefix_len=sum(map(len, witnesses)),
        exact=exact,
    )
