"""Factor languages, subword complexity p(n), and the subshift complexity p(2r).

The language of a source is enumerated from an explicit finite prefix.
Completeness cannot be certified from finite data, so the builder records
the largest length at which right-extendability held instead of claiming
more; for uniformly recurrent sources with an adequate budget the
enumeration is the full factor set.

Internally a suffix automaton of the prefix is built once, so that the
factor sets of all lengths up to ``n_max`` come out of a single linear
pass even for budgets in the hundreds of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import WordSource


class LanguageError(ValueError):
    pass


class _SuffixAutomaton:
    """Standard online suffix automaton over bytes."""

    def __init__(self, text: bytes):
        self.next: list[dict[int, int]] = [{}]
        self.link = [-1]
        self.maxlen = [0]
        last = 0
        for ch in text:
            cur = len(self.maxlen)
            self.maxlen.append(self.maxlen[last] + 1)
            self.link.append(-1)
            self.next.append({})
            p = last
            while p != -1 and ch not in self.next[p]:
                self.next[p][ch] = cur
                p = self.link[p]
            if p == -1:
                self.link[cur] = 0
            else:
                q = self.next[p][ch]
                if self.maxlen[p] + 1 == self.maxlen[q]:
                    self.link[cur] = q
                else:
                    clone = len(self.maxlen)
                    self.maxlen.append(self.maxlen[p] + 1)
                    self.link.append(self.link[q])
                    self.next.append(dict(self.next[q]))
                    while p != -1 and self.next[p].get(ch) == q:
                        self.next[p][ch] = clone
                        p = self.link[p]
                    self.link[q] = clone
                    self.link[cur] = clone
            last = cur
        self.last = last

    def factors_by_length(self, n_max: int, cap: int = 2_000_000) -> list[list[bytes]]:
        """Distinct substrings of each length 0..n_max, sorted lexicographically."""
        out: list[list[bytes]] = [[] for _ in range(n_max + 1)]
        count = -1  # the empty word is not counted against the cap
        # Iterative DFS in letter order, recording each factor when it is
        # popped, yields each length class already sorted.
        stack = [(0, b"")]
        while stack:
            state, word = stack.pop()
            out[len(word)].append(word)
            count += 1
            if count > cap:
                raise LanguageError(f"factor enumeration exceeded cap {cap}")
            if len(word) < n_max:
                nxt = self.next[state]
                for ch in sorted(nxt, reverse=True):
                    stack.append((nxt[ch], word + bytes([ch])))
        return out


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

    def __post_init__(self):
        self._sets = [set(bucket) for bucket in self.factors]

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
        return n <= self.n_max and word in self._sets[n]


def build_language(source: WordSource, n_max: int, prefix_budget: int) -> Language:
    """Enumerate all factors of length <= n_max seen in the prefix of the source."""
    if n_max < 1:
        raise LanguageError("n_max must be >= 1")
    if prefix_budget < n_max:
        raise LanguageError(f"prefix budget {prefix_budget} smaller than n_max {n_max}")
    prefix = source.prefix(prefix_budget)
    if len(prefix) < n_max:
        raise LanguageError("source ended before n_max letters were produced")
    sam = _SuffixAutomaton(prefix)
    factors = sam.factors_by_length(n_max)

    # Factor closure: the boundary subwords of every factor must be factors
    # (interior subwords follow by induction).  This is a structural check
    # on the enumeration itself and must never fail.
    sets = [set(bucket) for bucket in factors]
    for n in range(1, n_max + 1):
        for f in factors[n]:
            assert f[:-1] in sets[n - 1] and f[1:] in sets[n - 1], f"closure broken at {f!r}"

    extendable = n_max
    for n in range(1, n_max + 1):
        prefixes = {f[:-1] for f in factors[n]}
        if not set(factors[n - 1]) <= prefixes:
            extendable = n - 1
            break

    lang = Language(
        alphabet_size=source.alphabet.size,
        factors=factors,
        n_max=n_max,
        prefix_len=len(prefix),
        extendable_up_to=extendable,
        finite_source=source.finite_length is not None,
    )
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
