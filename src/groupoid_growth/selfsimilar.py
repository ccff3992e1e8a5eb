"""Groups acting on rooted trees by wreath recursions.

Elements are states of a minimized deterministic automaton: state k
carries a permutation of the alphabet and one child id per letter, and
every state is the one representative of its class.  Invariant: two
elements of one group have equal ids iff they are the same automorphism of
the tree; ids are valid within that group only.  So equality, identity
tests and group-ring coefficient merging are int compares.

Every class representative is registered by (permutation, child ids), so
``multiply`` gives the id of g*h from the ids of its sections,
multiply(g|_{h(x)}, h|_x), before it builds anything: a state exists only
for a new class (Filliatre and Conchon 2006).  Sections of a product are
short in a contracting group (Nekrashevych, Self-Similar Groups, 2005),
which keeps that recursion shallow.  What it cannot close, a product that
recurs on its own call stack, an inverse and a generator whose rest words
mention each other, goes to one interning routine, ``canonical_key``, over
words of ids, inverses and generator names: it walks the words reachable
by sections in strongly connected components, hash-conses an acyclic word
by (permutation, child ids) and minimizes a cyclic component by Moore
refinement against the known classes.

Boundary points are restricted to eventually periodic sequences
pre.per^inf, each a (preperiod, period) pair of letter tuples, where a germ
has a canonical key by cycle detection over (canonical id, phase) pairs, so
germ equality and germ triviality are key compares.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceError
from .words import parse_letters, read_fields

# Deepest recursion of ``SelfSimilarGroup.multiply`` on sections before a
# product goes to ``canonical_key``, which needs no call stack; contracting
# groups need about log2 of the word length.
_PRODUCT_DEPTH = 100
# Most automaton states one group may hold before it raises
# ResourceError (a non-contracting blowup).
STATE_CAP = 2_000_000
# Most letters of a point that germ_key follows before it gives up.
GERM_STEP_CAP = 10_000


class WreathRecursion:
    """Generator presentation: per generator (one lowercase letter a-z) a
    letter permutation and restriction words (one word over generator names
    per letter; '' is the identity, an uppercase name the inverse)."""

    __slots__ = ("alphabet_size", "generators")

    def __init__(self, alphabet_size: int, generators: dict[str, tuple[tuple[int, ...], tuple[str, ...]]]):
        d = alphabet_size
        if d < 2:
            raise ValueError(f"alphabet size {d}: a tree automorphism group needs at least 2 letters")
        for name, (perm, rests) in generators.items():
            if not (len(name) == 1 and "a" <= name <= "z"):
                raise ValueError(f"generator {name!r}: a name must be one lowercase letter a-z")
            if sorted(perm) != list(range(d)):
                raise ValueError(f"generator {name}: letter map is not a bijection of the alphabet")
            if len(rests) != d:
                raise ValueError(f"generator {name}: need one restriction word per letter")
            for w in rests:
                for ch in w:
                    if ch.lower() not in generators:
                        raise ValueError(f"generator {name}: unknown name {ch!r} in restriction")
        self.alphabet_size = alphabet_size
        self.generators = generators


def recursion_from_config(cfg) -> WreathRecursion:
    """The recursion of a JSON descriptor ``{"alphabet": d, "generators":
    {name: {"perm": [...], "rest": [...]}}}``, read by :func:`read_fields`."""
    alphabet, generators = read_fields(cfg, "group", alphabet=int, generators=dict)
    gens = {}
    for name, g in generators.items():
        perm, rest = read_fields(g, f"generator {name!r}", perm=list[int], rest=list[str])
        gens[name] = (tuple(perm), tuple(rest))
    return WreathRecursion(alphabet, gens)


ADDING_MACHINE = WreathRecursion(2, {"a": ((1, 0), ("", "a"))})

GRIGORCHUK = WreathRecursion(
    2,
    {
        "a": ((1, 0), ("", "")),
        "b": ((0, 1), ("a", "c")),
        "c": ((0, 1), ("a", "d")),
        "d": ((0, 1), ("", "b")),
    },
)

PRESETS = {"adding_machine": ADDING_MACHINE, "grigorchuk": GRIGORCHUK}


def parse_point(text: str, alphabet_size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The boundary point pre|period over ``alphabet_size`` letters as a
    (preperiod, period) tuple, e.g. '|1' for 1^inf or '0|10'."""
    pre, bar, period = text.partition("|")
    if not bar:
        raise ValueError(f"point {text!r}: the syntax is 'preperiod|period', e.g. '|1'")
    if not period:
        raise ValueError(f"point {text!r}: the period must be nonempty")
    return tuple(parse_letters(part, alphabet_size, f"point {text!r}") for part in (pre, period))


class SelfSimilarGroup:
    """Hash-consed realization of a wreath recursion."""

    def __init__(self, recursion: WreathRecursion):
        self.recursion = recursion
        self.d = recursion.alphabet_size
        self.perms: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []
        self._product_ids: dict[tuple[int, int], int] = {}
        self._inverse_cache: dict[int, int] = {}  # id -> id of its inverse, both ways
        self._level_sections: dict[tuple[int, int], tuple] = {}  # (id, level) -> image
        self._by_children: dict[tuple, int] = {}  # (perm, child ids) -> id
        self._by_cycle: dict[tuple, int] = {}  # BFS encoding of a cyclic class -> id

        idperm = tuple(range(self.d))
        # The first state, so its children are the id 0.
        self.identity = self._new_state(idperm, (0,) * self.d)
        # The identity is a cyclic class: a component equal to it that does
        # not reach it finds it by its encoding.
        self._by_cycle[idperm + (0,) * self.d] = self.identity
        self.gens = {name: self.canonical_key((name,)) for name in recursion.generators}
        self.gen_names = list(recursion.generators)

    def _new_state(self, perm: tuple[int, ...], kids: tuple[int, ...]) -> int:
        """Allocate the representative of a new class."""
        if len(self.perms) >= STATE_CAP:
            raise ResourceError(f"automaton state cap {STATE_CAP} exceeded")
        k = len(self.perms)
        self.perms.append(perm)
        self.children.append(kids)
        self._by_children[(perm, kids)] = k
        return k

    # -- products ----------------------------------------------------------

    def multiply(self, g: int, h: int) -> int:
        """Id of g*h (g applied after h), built from the ids of its sections.

        (g*h)|_x = g|_{h(x)} * h|_x: the child ids are computed first and
        (permutation, child ids) is looked up among the registered classes;
        a state is allocated only on a miss, which is a new acyclic class.
        A pair that recurs on its own call stack is cyclic, and goes to
        :meth:`canonical_key` as the node (g, h); so does a pair deeper than
        ``_PRODUCT_DEPTH`` levels, which bounds the recursion.
        """
        # The checks at the top of _multiply, inlined: most calls end here.
        if g == self.identity:
            return h
        if h == self.identity:
            return g
        k = self._product_ids.get((g, h))
        return self._multiply(g, h, set(), 0) if k is None else k

    def _multiply(self, g: int, h: int, active: set, depth: int) -> int:
        """multiply(); ``active`` holds the pairs on the call stack."""
        if g == self.identity:
            return h
        if h == self.identity:
            return g
        key = (g, h)
        k = self._product_ids.get(key)
        if k is not None:
            return k
        if key in active or depth >= _PRODUCT_DEPTH:
            return self.canonical_key(key)
        active.add(key)
        pg, ph, cg, ch = self.perms[g], self.perms[h], self.children[g], self.children[h]
        kids = tuple([self._multiply(cg[y], ch[x], active, depth + 1) for x, y in enumerate(ph)])
        active.discard(key)
        perm = tuple([pg[y] for y in ph])
        k = self._by_children.get((perm, kids))
        if k is None:
            k = self._new_state(perm, kids)
        self._product_ids[key] = k
        return k

    def inverse(self, g: int) -> int:
        """Id of g^-1."""
        if g == self.identity:
            return g
        k = self._inverse_cache.get(g)
        return self.canonical_key((~g,)) if k is None else k

    def word_id(self, word: str) -> int:
        """Id of a word over generator names, folded with :meth:`multiply`."""
        k = self.identity
        for ch in word:
            k = self.multiply(k, self._letter(ch))
        return k

    def _letter(self, ch: str) -> int:
        """Id of one letter of a word: a generator, or in uppercase its inverse."""
        g = self.gens.get(ch.lower())
        if g is None:
            raise ValueError(f"unknown generator {ch!r}: the generators are {', '.join(self.gen_names)}")
        return self.inverse(g) if ch.isupper() else g

    # -- tree action ---------------------------------------------------------

    def act(self, g: int, word) -> tuple[int, ...]:
        """Image of a finite word under the automorphism g."""
        out = []
        for x in word:
            if not (0 <= x < self.d):
                raise ValueError(f"letter {x} outside alphabet of size {self.d}")
            out.append(self.perms[g][x])
            g = self.children[g][x]
        return tuple(out)

    def restriction(self, g: int, word) -> int:
        """Id of g|_v."""
        for x in word:
            if not (0 <= x < self.d):
                raise ValueError(f"letter {x} outside alphabet of size {self.d}")
            g = self.children[g][x]
        return g

    def level_sections(self, g: int, level: int) -> tuple[tuple[int, int], ...]:
        """Level-``level`` image of g: for each column, a word v of length
        ``level`` read as a base-d integer, the pair (g(v) read the same
        way, id of g|_v).  Memoized by id and level for the lifetime of the
        group, whose ids never change."""
        key = (g, level)
        out = self._level_sections.get(key)
        if out is None:
            if level == 0:
                out = ((0, g),)
            else:
                size = self.d ** (level - 1)
                out = tuple(
                    (gx * size + row, e)
                    for gx, c in zip(self.perms[g], self.children[g])
                    for row, e in self.level_sections(c, level - 1)
                )
            self._level_sections[key] = out
        return out

    # -- interning -------------------------------------------------------------

    def canonical_key(self, node: tuple) -> int:
        """Id of the element a node stands for, allocating states only for
        new classes.

        A node is a tuple of letters whose product is the element: a pair
        of ids (g, h), the inverse (~k,) of an id, or while ``__init__``
        interns the generators a word of generator names (uppercase for an
        inverse), whose sections are the recursion's rest words.  Sections
        keep these forms.  The nodes reachable from ``node`` whose ids are
        not known yet are walked by strongly connected components, each
        after the ones it reaches: an acyclic node is looked up by
        (permutation, child ids), a cyclic component is minimized by Moore
        refinement together with the known classes below it.  Pairs are
        recorded as products and inverses in the inverse table.  The
        letters of the nodes expanded count against ``STATE_CAP``.
        """
        k = self._known_id(node)
        if k is not None:
            return k
        ids: dict[tuple, int] = {}  # nodes of this call -> their ids
        expanded: dict[tuple, tuple] = {}  # node -> (perm, child nodes)
        letters = len(self.perms)

        def successors(n: tuple) -> list[tuple]:
            nonlocal letters
            letters += len(n)
            if letters > STATE_CAP:
                raise ResourceError(f"automaton state cap {STATE_CAP} exceeded")
            expanded[n] = self._expand(n)
            return [c for c in expanded[n][1] if self._known_id(c) is None]

        for comp in _strongly_connected_components([node], successors):
            self._intern(comp, expanded, ids)
            for n in comp:
                if type(n[0]) is str:  # a name word is not recorded
                    continue
                if len(n) == 2:
                    self._product_ids[n] = ids[n]
                else:
                    self._inverse_cache[~n[0]] = ids[n]
                    self._inverse_cache[ids[n]] = ~n[0]
        return ids[node]

    def _known_id(self, node: tuple) -> int | None:
        """The id of a node read off the tables, or None."""
        if len(node) == 2:
            return self._product_ids.get(node)
        if len(node) == 1:
            k = node[0]
            if type(k) is str:
                return None
            return k if k >= 0 else self._inverse_cache.get(~k)
        return None if node else self.identity

    def _expand(self, node: tuple) -> tuple:
        """(permutation, child nodes) of a node: (l1...lm)|_x is
        l1|_{(l2...lm)(x)} ... lm|_x without identity letters, and
        (g^-1)|_y is (g|_{g^-1(y)})^-1."""
        identity = (self.identity, ~self.identity)
        perm, kids = [], []
        for x in range(self.d):
            y, sections = x, []
            for s in reversed(node):  # the rightmost letter acts first
                if type(s) is str:
                    p, rests = self.recursion.generators[s.lower()]
                    if s.islower():
                        y, section = p[y], rests[y]
                    else:
                        y = p.index(y)
                        section = rests[y][::-1].swapcase()
                elif s >= 0:
                    y, section = self.perms[s][y], (self.children[s][y],)
                else:
                    y = self.perms[~s].index(y)
                    section = (~self.children[~s][y],)
                sections.append(section)
            perm.append(y)
            kids.append(tuple(c for section in reversed(sections) for c in section if c not in identity))
        return tuple(perm), kids

    def _intern(self, comp: list[tuple], expanded: dict, ids: dict) -> None:
        """Give ids to one strongly connected component of nodes whose
        children outside it already have ids."""

        def outside(c: tuple) -> int:
            k = ids.get(c)
            return self._known_id(c) if k is None else k

        n = comp[0]
        if len(comp) == 1 and n not in expanded[n][1]:
            perm, children = expanded[n]
            kids = tuple(map(outside, children))
            k = self._by_children.get((perm, kids))
            ids[n] = self._new_state(perm, kids) if k is None else k
            return
        # Moore refinement over the component plus the known classes below
        # it, so that a cyclic node can merge with an existing representative.
        # Vertex i is members[i]: a node of comp for i < len(comp), else an id.
        members: list = list(comp)
        pos = {m: i for i, m in enumerate(members)}
        perms, kids = [], []
        for m in members:  # grows while the known classes below are found
            if type(m) is tuple:
                perm, children = expanded[m]
                children = [c if c in pos else outside(c) for c in children]
            else:
                perm, children = self.perms[m], self.children[m]
            for c in children:
                if c not in pos:
                    pos[c] = len(members)
                    members.append(c)
            perms.append(perm)
            kids.append([pos[c] for c in children])
        labels = _relabel(perms)
        while (refined := _relabel((labels[i], *(labels[j] for j in ks)) for i, ks in enumerate(kids))) != labels:
            labels = refined
        known = {labels[i]: members[i] for i in range(len(comp), len(members))}
        if labels[0] not in known:  # else every node is known: they reach each other
            rep = {labels[i]: i for i in reversed(range(len(comp)))}  # first vertex of each block

            def encode(start: int) -> tuple:
                # Minimized automaton in BFS order from a block, known classes
                # as ~id: equal encodings iff equal classes.
                order, queue, out = {start: 0}, [start], []
                for b in queue:
                    out.extend(perms[rep[b]])
                    for c in kids[rep[b]]:
                        cb = labels[c]
                        if cb not in known and cb not in order:
                            order[cb] = len(queue)
                            queue.append(cb)
                        out.append(~known[cb] if cb in known else order[cb])
                return tuple(out)

            codes = {b: encode(b) for b in rep}  # encode reads known
            if codes[labels[0]] not in self._by_cycle:  # new classes: register every block
                new = {b: len(self.perms) + j for j, b in enumerate(rep)}
                ids_of = known | new
                for b, i in rep.items():
                    self._new_state(perms[i], tuple(ids_of[labels[c]] for c in kids[i]))
                    self._by_cycle[codes[b]] = new[b]
            known.update({b: self._by_cycle[codes[b]] for b in rep})
        for i, m in enumerate(comp):
            ids[m] = known[labels[i]]

    # -- germs ---------------------------------------------------------------

    def germ_key(self, g: int, point: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple:
        """Canonical form of the germ of g at the point x = (pre, per): germs
        at x are equal iff g(x) = h(x) and g|_v = h|_v for a prefix v of x.
        A letter outside the alphabet or an empty period raises ValueError.

        One map drives t -> (id of g|_{x[:t]}, t - |pre| mod |per|) from
        t = |pre|, so the walk enters a cycle of length L at a time c (from
        |pre|), and two walks meet iff they hold the same section at a time
        that L divides.  The key is g(x) as (shortest preperiod, shortest
        period) and the section at the first such time from c on.  Past
        ``GERM_STEP_CAP`` letters it raises :class:`ResourceError`.
        """
        pre, per = point
        if not per:
            raise ValueError("period must be nonempty")
        if min(pre + per) < 0 or max(pre + per) >= self.d:
            raise ValueError(f"point has a letter outside the alphabet of size {self.d}")
        perms, children = self.perms, self.children
        k = g
        image, sections, seen = [], [], {}  # seen: (id, phase) -> its time
        for t in range(GERM_STEP_CAP):
            if t < len(pre):
                x = pre[t]
            else:
                node = (k, (t - len(pre)) % len(per))
                if node in seen:
                    break
                seen[node] = len(sections)
                sections.append(k)
                x = per[node[1]]
            image.append(perms[k][x])
            k = children[k][x]
        else:
            raise ResourceError(f"germ walk did not settle within {GERM_STEP_CAP} steps")
        entry = seen[node]
        cycle = len(sections) - entry
        head, tail = _eventually_periodic(image[: len(pre) + entry], image[len(pre) + entry :])
        return head, tail, sections[-(-entry // cycle) * cycle]

    def germ_is_unit(self, g: int, point: tuple[tuple[int, ...], tuple[int, ...]]) -> bool:
        """Whether the germ of g at a point is a unit: has the identity's key."""
        return self.germ_key(g, point) == self.germ_key(self.identity, point)

    # -- nucleus and contraction ----------------------------------------------

    def generator_states(self) -> list[int]:
        out = [self.gens[n] for n in self.gen_names]
        for n in self.gen_names:
            inv = self.inverse(self.gens[n])
            if inv not in out:
                out.append(inv)
        return out

    def nucleus(self, cap: int = 10_000) -> frozenset[int]:
        """The nucleus, certified, as a set of canonical ids.

        N is the recurrent core of the restriction closure of the pairwise
        products of 1, the generators and their inverses.  It is returned
        only if the recurrent core for {g*h : g, h in N} lies in N, which
        certifies that the group is contracting with nucleus N; else, or
        when a closure grows past ``cap`` ids, ResourceError is raised.  N
        is closed under restriction: ``_recurrent_core`` adds every
        successor of a core member.
        """
        if cap < 1:
            raise ValueError("cap must be >= 1")
        seeds = [self.identity] + self.generator_states()
        core = self._recurrent_core([self.multiply(g, h) for g in seeds for h in seeds], cap)
        square = self._recurrent_core([self.multiply(g, h) for g in core for h in core], cap)
        if not square <= core:
            raise ResourceError(f"not contracting: products of the {len(core)} candidates recur outside them")
        return frozenset(core)

    def _recurrent_core(self, states: list[int], cap: int) -> set[int]:
        """Ids reachable from a cycle in the restriction closure of states."""
        succ: dict[int, tuple[int, ...]] = {}
        stack = list(states)
        while stack:
            k = stack.pop()
            if k not in succ:
                if len(succ) >= cap:
                    raise ResourceError(f"restriction closure exceeded cap {cap}: not contracting within cap")
                succ[k] = self.children[k]
                stack.extend(succ[k])
        core: set[int] = set()
        # Components in topological order: each after every one reaching it.
        for comp in reversed(list(_strongly_connected_components(succ, succ.__getitem__))):
            if len(comp) > 1 or comp[0] in succ[comp[0]] or not core.isdisjoint(comp):
                core.update(comp)
                core.update(c for s in comp for c in succ[s])
        return core

    def reduced_steps(self, gens: list[int]) -> list[list[int]]:
        """Skip table of a breadth-first search over words in ``gens``
        (canonical ids): entry i lists the j with gens[j]*gens[i] neither
        the identity nor in ``gens``, the generators tried on an element
        made by gens[i]; the last entry, for the identity, lists every j."""
        known = {self.identity, *gens}
        after = [[j for j, s in enumerate(gens) if self.multiply(s, t) not in known] for t in gens]
        return after + [list(range(len(gens)))]

    def ball(self, radius: int) -> dict[int, int]:
        """Exact ball of the group: canonical id -> word length, in
        breadth-first order.

        An element t*g' first found from g' tries only the generators that
        :meth:`reduced_steps` lists for t.  A skipped s has s*t = u in {1}
        and the generators, so s*t*g' = u*g' is g' itself or a generator
        times an element one radius lower, which by induction on the radius
        was found by the radius of t*g'.  So the same elements are found at
        the same radii, in the same order, as when every element tries every
        generator.
        """
        lengths = {self.identity: 0}
        gens = self.generator_states()
        after = self.reduced_steps(gens)
        frontier = [(self.identity, -1)]  # (element, index of the generator that made it)
        for r in range(1, radius + 1):
            nxt = []
            for g, t in frontier:
                for j in after[t]:
                    k = self.multiply(gens[j], g)
                    if k not in lengths:
                        lengths[k] = r
                        nxt.append((k, j))
            frontier = nxt
        return lengths

    def contraction_estimate(self, length_cap: int, depth_cap: int = 6) -> "ContractionEstimate":
        """Empirical contraction witness.

        Over all group elements with word length in [length_cap/2,
        length_cap], takes the worst ratio l(g|_v)/l(g) at each depth and
        returns the best (smallest) depth ratio found: an upper-bound
        witness at that depth, not the true limsup.  The ids within
        ``depth_cap`` restrictions of the band are numbered once, band
        first, with one column of child indices per letter; ``longest``
        (the longest in-ball restriction k|_v with |v| = depth, or -1) and
        ``outside`` (some k|_v lies outside the ball) are arrays over that
        numbering, and depth j is read off depth j-1 through the columns.
        The band is in breadth-first order, a run of ids per length l, so
        each run gives one candidate ratio: the max of its ``longest``,
        raised to l + 1 when some restriction leaves the ball.
        """
        if length_cap < 2:
            raise ValueError("length_cap must be >= 2")
        lengths = self.ball(length_cap)
        lo = (length_cap + 1) // 2
        ids = [k for k, l in lengths.items() if lo <= l]
        if not ids:
            return ContractionEstimate(Fraction(0), 1)
        lens = [lengths[k] for k in ids]
        index = {k: i for i, k in enumerate(ids)}
        children = self.children
        cols: list[list[int]] = [[] for _ in range(self.d)]
        for _ in range(depth_cap):  # expand the ids not expanded yet: one layer
            kids = [c for k in ids[len(cols[0]) :] for c in children[k]]
            for k in dict.fromkeys(kids):
                if k not in index:
                    index[k] = len(ids)
                    ids.append(k)
            flat = list(map(index.__getitem__, kids))
            for x, col in enumerate(cols):
                col.extend(flat[x :: self.d])
        # Ids at distance depth_cap are read only at depth 0: they point at themselves.
        for col in cols:
            col.extend(range(len(col), len(ids)))
        longest = [lengths.get(k, -1) for k in ids]
        outside = [k not in lengths for k in ids]
        runs = [(l, lens.index(l), lens.index(l) + lens.count(l)) for l in dict.fromkeys(lens)]
        best_ratio, best_depth = None, 1
        for depth in range(1, depth_cap + 1):
            longest, outside = _fold(max, longest, cols), _fold(operator.or_, outside, cols)
            worst_num, worst_den = 0, 1
            for l, i, j in runs:
                rl = max(longest[i:j])
                # A restriction outside the ball is longer than the cap.
                if rl <= l and True in outside[i:j]:
                    rl = l + 1
                if rl * worst_den > worst_num * l:
                    worst_num, worst_den = rl, l
            worst = Fraction(worst_num, worst_den)
            if best_ratio is None or worst < best_ratio:
                best_ratio, best_depth = worst, depth
        return ContractionEstimate(best_ratio, best_depth)


def _fold(op, values: list, cols: list[list[int]]) -> list:
    """Entry i: ``op`` folded over values[col[i]] for the columns of
    child indices, so over the children of id i."""
    out = map(values.__getitem__, cols[0])
    for col in cols[1:]:
        out = map(op, out, map(values.__getitem__, col))
    return list(out)


def _eventually_periodic(head: list[int], tail: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The word head tail tail ... as (shortest preperiod, shortest period)."""
    n = len(tail)
    tail = tail[: next(p for p in range(1, n + 1) if n % p == 0 and tail == tail[p:] + tail[:p])]
    while head and head[-1] == tail[-1]:
        head.pop()
        tail.insert(0, tail.pop())
    return tuple(head), tuple(tail)


def _relabel(signatures) -> list[int]:
    """Number the distinct signatures 0, 1, ... in order of first appearance."""
    ids: dict = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def _strongly_connected_components(roots, successors):
    """Tarjan's algorithm, iterative: yield the strongly connected
    components of the graph reachable from roots, each after every
    component it reaches."""
    index, low, stack = {}, {}, []  # index: discovery order, math.inf once yielded
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(successors(w))))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = math.inf
                    yield comp


class ContractionEstimate(NamedTuple):
    ratio: Fraction
    depth: int


def group_from_spec(spec) -> SelfSimilarGroup:
    """Accept a preset name or a config dict."""
    if isinstance(spec, dict):
        return SelfSimilarGroup(recursion_from_config(spec))
    if isinstance(spec, str) and spec in PRESETS:
        return SelfSimilarGroup(PRESETS[spec])
    raise ValueError(f"cannot interpret group spec {spec!r}; expected a preset name or a JSON object")
