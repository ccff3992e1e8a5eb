"""Symbolic sequences as lazily evaluated word sources.

A :class:`WordSource` produces the letters of a one-sided infinite (or
finite explicit) word over an integer alphabet ``0..k-1``.  Bi-infinite
sequences are represented only through their factor languages plus
one-sided prefixes: everything downstream (complexity, groupoid balls,
algebra growth) depends on the factor language alone, which sidesteps
two-sided indexing and the Sturmian cut-point subtlety.

Prefixes are memoized in a byte buffer, so that a longer prefix, as in
the doubling search of :meth:`SturmianSource.witnesses`, extends the
letters already made instead of remaking them; a Sturmian source remakes
only the letters past its last whole word s(k).

Each source also says how its factor language is read off finite words
(:meth:`WordSource.witnesses`): words whose factors of length <= n are
exactly the factors of length <= n that the language is built from.  A
primitive, growing substitution and a Sturmian word give a certified,
exact language from a few thousand letters, an eventually periodic word
from n letters past its preperiod and one period, and an explicit word
from the whole word; each raises :class:`ResourceError` when the budget
is smaller.  Toeplitz skeletons and the other substitutions give one
prefix, which is not certified.
"""

from __future__ import annotations

from .errors import ResourceError


class WordSource:
    """Base class; subclasses fill the prefix buffer via ``_extend``."""

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet must have at least one letter")
        self.alphabet_size = alphabet_size
        self._buf = bytearray()

    def _extend(self, n: int) -> None:
        """Grow the buffer to at least n letters (or to the end of a finite word)."""
        raise NotImplementedError

    def prefix(self, n: int) -> bytes:
        """First n letters as bytes (shorter for a finite source)."""
        if len(self._buf) < n:
            self._extend(n)
        return bytes(self._buf[:n])

    def witnesses(self, n: int, budget: int) -> tuple[list[bytes], bool]:
        """Witness words for the factors of length <= n, read within
        ``budget`` letters in all, and whether they are certified to hold
        every such factor of the source.

        Here the one witness is the prefix of ``budget`` letters, which is
        not certified; subclasses that can do better override this.
        """
        return [self.prefix(budget)], False


class SturmianSource(WordSource):
    """Characteristic Sturmian word from continued-fraction terms.

    Built by the standard word recursion s(-1)=1, s(0)=0,
    s(k) = s(k-1)^a_k s(k-2); each s(k) is a prefix of s(k+1), so the
    limit word is well defined.  With terms [1,1,1,...] this yields the
    Fibonacci word 0100101001001...; the factor language is Sturmian for
    any positive term sequence, so p(n) = n+1 throughout.
    """

    def __init__(self, cf_terms, cf_periodic: bool, period_start: int = 0):
        terms = list(cf_terms)
        if not terms:
            raise ValueError("continued-fraction terms must be nonempty")
        if any((not isinstance(a, int)) or a < 1 for a in terms):
            raise ValueError("continued-fraction terms must be positive integers")
        if not cf_periodic and len(terms) < 8:
            raise ValueError("supply at least 8 continued-fraction terms or set the periodic-tail flag")
        if cf_periodic and not (0 <= period_start < len(terms)):
            raise ValueError("periodic tail start index out of range")
        super().__init__(2)
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
            raise ValueError(
                f"continued-fraction terms exhausted at index {k}; "
                "set the periodic-tail flag for longer prefixes"
            )
        tail = self.terms[self.period_start :]
        return tail[(k - 1 - self.period_start) % len(tail)]

    def _extend(self, n: int) -> None:
        while len(self._cur) < n:
            a = self._term(self._k + 1)
            if len(self._cur) * a + len(self._prev) > n:
                # s(k+1) = s(k)^a s(k-1) is longer than asked: build its first
                # n letters only, and keep s(k-1), s(k) for a longer prefix.
                reps = min(a, -(-n // len(self._cur)))
                self._buf = bytearray((self._cur * reps + self._prev)[:n])
                return
            self._k += 1
            self._prev, self._cur = self._cur, self._cur * a + self._prev
        self._buf = bytearray(self._cur)

    def witnesses(self, n: int, budget: int) -> tuple[list[bytes], bool]:
        """The shortest prefix among 2n, 4n, ... (capped at ``budget``) that
        holds n + 1 distinct factors of length n.

        A Sturmian word has exactly n + 1 of them (Morse-Hedlund 1940;
        Coven-Hedlund 1973), so such a prefix holds them all, and every
        shorter factor is the start of one of them.
        """
        m = min(2 * n, budget)
        while True:
            w = self.prefix(m)
            if len({w[i : i + n] for i in range(m - n + 1)}) == n + 1:
                return [w], True
            if m == budget:
                raise ResourceError(
                    f"a prefix of {budget} letters holds fewer than the {n + 1} "
                    f"Sturmian factors of length {n}; raise the budget"
                )
            m = min(2 * m, budget)


class SubstitutionSource(WordSource):
    """One-sided fixed point of a substitution whose seed image starts with the seed."""

    def __init__(self, rules: dict[int, tuple[int, ...]], seed: int, alphabet_size: int):
        super().__init__(alphabet_size)
        for x in range(alphabet_size):
            if x not in rules:
                raise ValueError(f"letter {x} has no substitution rule")
            if not rules[x]:
                raise ValueError(f"rule for letter {x} is empty")
            if any(not (0 <= y < alphabet_size) for y in rules[x]):
                raise ValueError(f"rule for letter {x} leaves the alphabet")
        if not 0 <= seed < alphabet_size:
            raise ValueError(f"seed {seed} outside the alphabet of size {alphabet_size}")
        if rules[seed][0] != seed:
            raise ValueError("rules(seed) must begin with the seed letter")
        self.rules = {x: bytes(w) for x, w in rules.items()}
        self._buf = bytearray([seed])

    def _apply(self, w: bytes) -> bytes:
        return b"".join(self.rules[x] for x in w)

    def _is_primitive(self) -> bool:
        """Whether some power of the incidence matrix is positive.

        By Wielandt's bound it suffices to test the power (d-1)^2 + 1, read
        here as letter sets: ``reach[x]`` holds the letters of sigma^j(x).
        """
        d = self.alphabet_size
        letters = [set(self.rules[x]) for x in range(d)]
        reach = letters
        for _ in range((d - 1) ** 2):
            reach = [set().union(*(letters[y] for y in r)) for r in reach]
        return all(len(r) == d for r in reach)

    def witnesses(self, n: int, budget: int) -> tuple[list[bytes], bool]:
        """For a primitive substitution that grows, the words
        sigma^k(a) sigma^k(b), one for each two-letter factor ab, with k the
        least power at which every |sigma^k(x)| >= n - 1.

        A length-n window of a concatenation of such blocks lies in two
        consecutive ones, so these words hold every factor of length <= n
        (Queffelec, LNM 1294).  The two-letter factors are those inside each
        sigma(c), closed under ab -> (last letter of sigma(a), first letter
        of sigma(b)).  Any other substitution reads one prefix.
        """
        rules = self.rules
        # A primitive substitution grows unless it is the one-letter 0 -> 0.
        if all(len(w) == 1 for w in rules.values()) or not self._is_primitive():
            return super().witnesses(n, budget)
        pairs = {w[i : i + 2] for w in rules.values() for i in range(len(w) - 1)}
        todo = list(pairs)
        while todo:
            a, b = todo.pop()
            ab = bytes((rules[a][-1], rules[b][0]))
            if ab not in pairs:
                pairs.add(ab)
                todo.append(ab)
        pairs = sorted(pairs)
        # Lengths first, so an over-budget request allocates nothing.
        lengths, k = {x: 1 for x in rules}, 0
        while min(lengths.values()) < n - 1:
            lengths = {x: sum(lengths[y] for y in w) for x, w in rules.items()}
            k += 1
        _check_budget(n, sum(lengths[a] + lengths[b] for a, b in pairs), budget)
        images = {x: bytes((x,)) for x in rules}
        for _ in range(k):
            images = {x: b"".join(images[y] for y in w) for x, w in rules.items()}
        return [images[a] + images[b] for a, b in pairs], True

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
    follows hole redirections until a concrete skeleton letter is hit.  It
    always ends: with h holes in a period of length q, the position
    qm + r of a hole goes to hm + (the rank of r among the holes), which
    is smaller, since the skeleton does not start with a hole.
    """

    HOLE = -1

    def __init__(self, skeleton: tuple[int, ...], alphabet_size: int):
        super().__init__(alphabet_size)
        if all(c == self.HOLE for c in skeleton):
            raise ValueError("skeleton must contain at least one letter")
        if all(c != self.HOLE for c in skeleton):
            raise ValueError("skeleton must contain at least one hole")
        if skeleton[0] == self.HOLE:
            raise ValueError("skeleton must not start with a hole")
        self.skeleton = tuple(skeleton)
        holes = [i for i, c in enumerate(skeleton) if c == self.HOLE]
        self.hole_rank = {i: rank for rank, i in enumerate(holes)}
        self.holes_per_period = len(holes)

    def _resolve(self, pos: int) -> int:
        q = len(self.skeleton)
        while True:
            r = pos % q
            c = self.skeleton[r]
            if c != self.HOLE:
                return c
            pos = (pos // q) * self.holes_per_period + self.hole_rank[r]

    def _extend(self, n: int) -> None:
        # Period m is the skeleton with w[hm : hm + h] in its holes: periods whose
        # fillers are all in buf are written by strided slices, earlier letters singly.
        buf = self._buf
        q, h = len(self.skeleton), self.holes_per_period
        while len(buf) < n:
            m, r = divmod(len(buf), q)
            stop = min(len(buf) // h, -(-n // q))  # periods m..stop-1 have their fillers
            if r or stop <= m:
                buf.append(self._resolve(len(buf)))
                continue
            block = bytearray(q * (stop - m))
            for i, c in enumerate(self.skeleton):
                if c == self.HOLE:
                    block[i::q] = buf[h * m + self.hole_rank[i] : h * stop : h]
                else:
                    block[i::q] = bytes((c,)) * (stop - m)
            buf += block


class EventuallyPeriodicSource(WordSource):
    """Explicit preperiod followed by a repeating period."""

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...], alphabet_size: int):
        super().__init__(alphabet_size)
        if not period:
            raise ValueError("period must be nonempty")
        self.preperiod = bytes(preperiod)
        self.periodic = bytes(period)

    def _extend(self, n: int) -> None:
        pre, per = self.preperiod, self.periodic
        need = n - len(pre)
        reps = max(0, need // len(per) + 1)
        self._buf = bytearray(pre + per * reps)

    def witnesses(self, n: int, budget: int) -> tuple[list[bytes], bool]:
        """The prefix that runs n letters past the preperiod and one period,
        which is exact, since a factor that starts later also starts one
        period earlier."""
        need = len(self.preperiod) + len(self.periodic) + n
        _check_budget(n, need, budget)
        return [self.prefix(need)], True


class ExplicitSource(WordSource):
    """A finite word, contributing only its factor set."""

    def __init__(self, word: tuple[int, ...], alphabet_size: int):
        super().__init__(alphabet_size)
        if not word:
            raise ValueError("explicit word must be nonempty")
        self._buf = bytearray(word)

    def _extend(self, n: int) -> None:
        pass  # buffer is complete at construction

    def witnesses(self, n: int, budget: int) -> tuple[list[bytes], bool]:
        """The whole word, which is exact."""
        need = len(self._buf)
        _check_budget(n, need, budget)
        return [self.prefix(need)], True


def _check_budget(n: int, need: int, budget: int) -> None:
    """Raise :class:`ResourceError` when the exact language up to length n needs
    more than ``budget`` letters."""
    if need > budget:
        raise ResourceError(
            f"the exact language up to length {n} needs {need} letters, "
            f"more than the budget of {budget}"
        )


def parse_letters(text: str, alphabet_size: int, what: str, extra: dict | None = None) -> tuple[int, ...]:
    """The letters of ``text``, one decimal digit each, or a character that
    ``extra`` maps to its value; else a ValueError names ``what``."""
    letters = {**{str(x): x for x in range(min(alphabet_size, 10))}, **(extra or {})}
    for ch in text:
        if ch not in letters:
            raise ValueError(f"{what}: letter {ch!r} outside the alphabet of size {alphabet_size}")
    return tuple(letters[ch] for ch in text)


# JSON name of each field type that a value may fail to have.
_JSON_TYPES = {
    int: "an integer", bool: "true or false", str: "a string", dict: "an object",
    list[int]: "a list of integers", list[str]: "a list of strings", dict[str, str]: "an object of strings",
}


def _read_value(value, kind):
    """``value`` as the JSON type ``kind``, a ``list[t]`` or ``dict[str, t]``
    item by item; raises TypeError or ValueError when it is not one."""
    base = getattr(kind, "__origin__", kind)
    if base is int and isinstance(value, str):
        return int(value)
    if not isinstance(value, base) or base is int and isinstance(value, bool):
        raise TypeError
    if kind is base:
        return value
    if base is list:
        return [_read_value(v, kind.__args__[0]) for v in value]
    return {k: _read_value(v, kind.__args__[1]) for k, v in value.items()}


def read_fields(cfg, what: str, **spec) -> list:
    """The values of the descriptor ``cfg``, a ``what``, in the order of
    ``spec``, which maps each key to its type (``object`` for any value), or
    to (type, default) if it may be absent.  An integer may be a decimal
    string but not a boolean.  A ValueError names ``what`` and the key."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} must be a JSON object, got {cfg!r}")
    unknown = sorted(cfg.keys() - spec.keys())
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}; its keys are {', '.join(spec)}")
    values = []
    for key, kind in spec.items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        if key not in cfg and not default:
            raise ValueError(f"{what} has no {key!r} field")
        try:
            values.append(_read_value(cfg[key], kind) if key in cfg else default[0])
        except (TypeError, ValueError):
            raise ValueError(f"{what} field {key!r} must be {_JSON_TYPES[kind]}, got {cfg[key]!r}") from None
    return values


# Fields of each source kind besides "kind"; README, "Descriptors".
_SOURCE_FIELDS = {
    "sturmian": {"cf": list[int], "cf_periodic": (bool, False), "period_start": (int, 0)},
    "substitution": {"rules": dict[str, str], "seed": int},
    "toeplitz": {"skeleton": str, "alphabet": (int, None)},
    "eventually_periodic": {"pre": (str, ""), "period": str, "alphabet": (int, None)},
    "explicit": {"word": str, "alphabet": (int, None)},
}


def source_from_config(cfg) -> WordSource:
    """Build a source from its JSON description, one of ``_SOURCE_FIELDS``;
    words are read by :func:`parse_letters`, fields by :func:`read_fields`."""
    spec = _SOURCE_FIELDS.get(cfg.get("kind")) if isinstance(cfg, dict) else {}
    if spec is None:
        raise ValueError(f"unknown source kind {cfg.get('kind')!r}; the kinds are {', '.join(_SOURCE_FIELDS)}")
    kind, *values = read_fields(cfg, "source", kind=str, **spec)
    if kind == "sturmian":
        return SturmianSource(*values)
    if kind == "substitution":
        rules, seed = values  # the constructor checks that the keys are the letters
        letters = {int(x) if x.isdecimal() else x: parse_letters(w, len(rules), f"rule {x}") for x, w in rules.items()}
        return SubstitutionSource(letters, seed, len(rules))
    *texts, size = values
    if size is None:  # one more than the largest letter
        size = 1 + max((int(c) for c in "".join(texts) if c.isdecimal()), default=1)
    holes = {"?": ToeplitzSource.HOLE} if kind == "toeplitz" else None
    words = [parse_letters(text, size, f"source field {key!r}", holes) for text, key in zip(texts, spec)]
    make = {"toeplitz": ToeplitzSource, "eventually_periodic": EventuallyPeriodicSource, "explicit": ExplicitSource}
    return make[kind](*words, size)


def golden_sturmian() -> SturmianSource:
    """The Fibonacci word source, cf = [1,1,1,...]."""
    return SturmianSource([1], cf_periodic=True)


def thue_morse() -> SubstitutionSource:
    return SubstitutionSource({0: (0, 1), 1: (1, 0)}, 0, 2)
