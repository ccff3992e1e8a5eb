"""Symbolic sequences as lazily evaluated word sources.

A :class:`WordSource` produces the letters of a one-sided infinite (or
finite explicit) word over an integer alphabet ``0..k-1``.  Bi-infinite
sequences are represented only through their factor languages plus
one-sided prefixes: everything downstream (complexity, groupoid balls,
algebra growth) depends on the factor language alone, which sidesteps
two-sided indexing and the Sturmian cut-point subtlety.

Prefixes are memoized in a byte buffer grown geometrically, since factor
enumeration re-queries heavily.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class WordSourceError(ValueError):
    """Invalid word-source construction parameters."""


class UndeterminedPosition(RuntimeError):
    """A Toeplitz position was not resolved within the iteration cap."""


@dataclass(frozen=True)
class Alphabet:
    size: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise WordSourceError("alphabet must have at least one letter")
        if self.names is not None:
            if len(self.names) != self.size or len(set(self.names)) != self.size:
                raise WordSourceError("display names must be distinct, one per letter")

    def display(self, letter: int) -> str:
        if self.names is not None:
            return self.names[letter]
        return str(letter)


class WordSource:
    """Base class; subclasses fill the prefix buffer via ``_extend``."""

    alphabet: Alphabet
    finite_length: int | None = None  # None = infinite

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._buf = bytearray()

    def _extend(self, n: int) -> None:
        """Grow the buffer to at least n letters (or to the end of a finite word)."""
        raise NotImplementedError

    def _ensure(self, n: int) -> None:
        if len(self._buf) >= n:
            return
        if self.finite_length is not None:
            n = min(n, self.finite_length)
            if len(self._buf) >= n:
                return
        # Geometric growth amortizes repeated nearby queries.
        self._extend(max(n, 2 * len(self._buf), 64))

    def letter(self, i: int) -> int:
        if i < 0:
            raise IndexError("word sources are one-sided; negative index")
        if self.finite_length is not None and i >= self.finite_length:
            raise IndexError(f"index {i} beyond finite word of length {self.finite_length}")
        self._ensure(i + 1)
        return self._buf[i]

    def prefix(self, n: int) -> bytes:
        """First n letters as bytes (shorter for a finite source)."""
        self._ensure(n)
        if self.finite_length is not None:
            n = min(n, self.finite_length)
        return bytes(self._buf[:n])

    def prefix_str(self, n: int) -> str:
        return "".join(self.alphabet.display(c) for c in self.prefix(n))


class SturmianSource(WordSource):
    """Characteristic Sturmian word from continued-fraction terms.

    Built by the standard word recursion s(-1)=1, s(0)=0,
    s(k) = s(k-1)^a_k s(k-2); each s(k) is a prefix of s(k+1), so the
    limit word is well defined.  With terms [1,1,1,...] this yields the
    Fibonacci word 0100101001001...; the factor language is Sturmian for
    any positive term sequence, so p(n) = n+1 throughout.
    """

    def __init__(self, cf_terms, cf_periodic: bool = False, period_start: int = 0):
        terms = list(cf_terms)
        if not terms:
            raise WordSourceError("continued-fraction terms must be nonempty")
        if any((not isinstance(a, int)) or a < 1 for a in terms):
            raise WordSourceError("continued-fraction terms must be positive integers")
        if not cf_periodic and len(terms) < 8:
            raise WordSourceError(
                "supply at least 8 continued-fraction terms or set the periodic-tail flag"
            )
        if cf_periodic and not (0 <= period_start < len(terms)):
            raise WordSourceError("periodic tail start index out of range")
        super().__init__(Alphabet(2))
        self.terms = terms
        self.cf_periodic = cf_periodic
        self.period_start = period_start
        self._prev = b"\x01"  # s(-1)
        self._cur = b"\x00"  # s(0)
        self._k = 0

    def _term(self, k: int) -> int:
        # k is 1-based
        if k <= len(self.terms):
            return self.terms[k - 1]
        if not self.cf_periodic:
            raise WordSourceError(
                f"continued-fraction terms exhausted at index {k}; "
                "set the periodic-tail flag for longer prefixes"
            )
        tail = self.terms[self.period_start :]
        return tail[(k - 1 - self.period_start) % len(tail)]

    def _extend(self, n: int) -> None:
        while len(self._cur) < n:
            self._k += 1
            a = self._term(self._k)
            self._prev, self._cur = self._cur, self._cur * a + self._prev
        self._buf = bytearray(self._cur)


class SubstitutionSource(WordSource):
    """One-sided fixed point of a substitution whose seed image starts with the seed."""

    def __init__(self, rules: dict[int, tuple[int, ...]], seed: int, alphabet: Alphabet):
        super().__init__(alphabet)
        for x in range(alphabet.size):
            if x not in rules:
                raise WordSourceError(f"letter {x} has no substitution rule")
            if not rules[x]:
                raise WordSourceError(f"rule for letter {x} is empty")
            if any(not (0 <= y < alphabet.size) for y in rules[x]):
                raise WordSourceError(f"rule for letter {x} leaves the alphabet")
        if rules[seed][0] != seed:
            raise WordSourceError("rules(seed) must begin with the seed letter")
        self.rules = {x: bytes(w) for x, w in rules.items()}
        self.seed = seed
        self._buf = bytearray([seed])

    def _apply(self, w: bytes) -> bytes:
        return b"".join(self.rules[x] for x in w)

    def _extend(self, n: int) -> None:
        w = bytes(self._buf)
        while len(w) < n:
            nxt = self._apply(w)
            if nxt == w:
                # Finite fixed word (e.g. 0 -> 0): extend periodically.
                w = (w * (n // len(w) + 1))[:n]
                break
            w = nxt
        self._buf = bytearray(w)


class ToeplitzSource(WordSource):
    """Self-filling Toeplitz limit of a skeleton with holes.

    The skeleton is repeated periodically; the hole positions, read in
    order, are filled with the sequence itself.  Resolution of a position
    follows hole redirections until a concrete skeleton letter is hit;
    the iteration cap makes nontermination a loud error instead of a
    silent guess.
    """

    HOLE = -1

    def __init__(self, skeleton: tuple[int, ...], alphabet: Alphabet, depth_cap: int = 12):
        super().__init__(alphabet)
        if all(c == self.HOLE for c in skeleton):
            raise WordSourceError("skeleton must contain at least one letter")
        if all(c != self.HOLE for c in skeleton):
            raise WordSourceError("skeleton must contain at least one hole")
        if skeleton[0] == self.HOLE:
            raise WordSourceError("skeleton must not start with a hole")
        self.skeleton = tuple(skeleton)
        self.depth_cap = depth_cap
        self.hole_rank = {}
        rank = 0
        for i, c in enumerate(skeleton):
            if c == self.HOLE:
                self.hole_rank[i] = rank
                rank += 1
        self.holes_per_period = rank

    def _resolve(self, pos: int) -> tuple[int, int]:
        """Return (letter, depth) for a position; depth 0 = direct skeleton letter."""
        q = len(self.skeleton)
        depth = 0
        while True:
            r = pos % q
            c = self.skeleton[r]
            if c != self.HOLE:
                return c, depth
            depth += 1
            if depth > self.depth_cap:
                raise UndeterminedPosition(
                    f"position {pos} not determined within {self.depth_cap} filling levels"
                )
            pos = (pos // q) * self.holes_per_period + self.hole_rank[r]

    def period(self, pos: int) -> int:
        """A period p with w(pos + k*p) = w(pos) for all k >= 0."""
        _, depth = self._resolve(pos)
        return len(self.skeleton) ** (depth + 1)

    def _extend(self, n: int) -> None:
        buf = self._buf
        for i in range(len(buf), n):
            buf.append(self._resolve(i)[0])


class EventuallyPeriodicSource(WordSource):
    """Explicit preperiod followed by a repeating period."""

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...], alphabet: Alphabet):
        if not period:
            raise WordSourceError("period must be nonempty")
        super().__init__(alphabet)
        self.preperiod = bytes(preperiod)
        self.periodic = bytes(period)

    def _extend(self, n: int) -> None:
        pre, per = self.preperiod, self.periodic
        need = n - len(pre)
        reps = max(0, need // len(per) + 1)
        self._buf = bytearray(pre + per * reps)


class ExplicitSource(WordSource):
    """A finite word, contributing only its factor set."""

    def __init__(self, word: tuple[int, ...], alphabet: Alphabet):
        if not word:
            raise WordSourceError("explicit word must be nonempty")
        super().__init__(alphabet)
        self.finite_length = len(word)
        self._buf = bytearray(word)

    def _extend(self, n: int) -> None:
        pass  # buffer is complete at construction


def _parse_letters(s: str, alphabet_size: int, extra: dict | None = None) -> tuple[int, ...]:
    out = []
    for ch in s:
        if extra and ch in extra:
            out.append(extra[ch])
            continue
        v = int(ch)
        if not (0 <= v < alphabet_size):
            raise WordSourceError(f"letter {ch!r} outside alphabet of size {alphabet_size}")
        out.append(v)
    return tuple(out)


def source_from_config(cfg: dict) -> WordSource:
    """Build a source from its JSON description.

    Kinds: ``sturmian`` (cf terms), ``substitution`` (rules + seed),
    ``toeplitz`` (skeleton with ``?`` holes), ``eventually_periodic``,
    ``explicit``.
    """
    kind = cfg.get("kind")
    if kind == "sturmian":
        return SturmianSource(
            cfg["cf"],
            cf_periodic=bool(cfg.get("cf_periodic", False)),
            period_start=int(cfg.get("period_start", 0)),
        )
    if kind == "substitution":
        raw = cfg["rules"]
        size = len(raw)
        rules = {int(k): _parse_letters(v, size) for k, v in raw.items()}
        if sorted(rules) != list(range(size)):
            raise WordSourceError("substitution rules must cover letters 0..k-1")
        return SubstitutionSource(rules, int(cfg["seed"]), Alphabet(size))
    if kind == "toeplitz":
        skel = cfg["skeleton"]
        size = int(cfg.get("alphabet", max((int(c) for c in skel if c != "?"), default=0) + 1))
        skeleton = _parse_letters(skel, size, extra={"?": ToeplitzSource.HOLE})
        return ToeplitzSource(skeleton, Alphabet(size), depth_cap=int(cfg.get("depth_cap", 12)))
    if kind == "eventually_periodic":
        pre, per = cfg.get("pre", ""), cfg["period"]
        letters = pre + per
        size = int(cfg.get("alphabet", max(int(c) for c in letters) + 1)) if letters else 2
        return EventuallyPeriodicSource(
            _parse_letters(pre, size), _parse_letters(per, size), Alphabet(size)
        )
    if kind == "explicit":
        word = cfg["word"]
        size = int(cfg.get("alphabet", max(int(c) for c in word) + 1))
        return ExplicitSource(_parse_letters(word, size), Alphabet(size))
    raise WordSourceError(f"unknown source kind {kind!r}")


def source_from_json(text: str) -> WordSource:
    return source_from_config(json.loads(text))


def golden_sturmian() -> SturmianSource:
    """The Fibonacci word source, cf = [1,1,1,...]."""
    return SturmianSource([1], cf_periodic=True)


def thue_morse() -> SubstitutionSource:
    return SubstitutionSource({0: (0, 1), 1: (1, 0)}, 0, Alphabet(2))
