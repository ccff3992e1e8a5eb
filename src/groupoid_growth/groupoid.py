"""Cayley-graph balls of groupoids and their complexity delta.

Two groupoid models are supported: the groupoid of a subshift (units are
2r-letter windows, fibers are copies of Z) and the groupoid of germs of
a self-similar group (units are eventually periodic boundary points, and
a ball maps the canonical key of each germ to its vertex).  Complexity
counts isomorphism classes of rooted edge-labeled balls.  A subshift ball
is a path whose 2r edges spell its window, so distinct windows give
distinct classes and delta(r) = p(2r), read off the language; germ balls
are counted by a canonical code.  Generators are bisections, so each
label is a partial injection on the vertices of a ball: a neighbour is
named by its (label, direction) from a named vertex, and one breadth-first
walk from the root in label order numbers the vertices canonically, in
time linear in the ball.
"""

from __future__ import annotations

import itertools

from .errors import ResourceError
from .selfsimilar import SelfSimilarGroup
from .subshift import Language


# Most points :meth:`GermGroupoidModel.periodic_units` builds; Grigorchuk germ
# delta at r=16, pre=5, period=5 uses 3,906, in ~4 s on a Xeon core (Python 3.11).
UNIT_CAP = 100_000


class LabeledBall:
    """Rooted directed edge-labeled graph; vertex 0 is the root.

    Each label is a partial injection on the vertices: a vertex has at most
    one out-edge and at most one in-edge of each label.  That holds for
    every Cayley ball, since its generators are bisections.
    """

    __slots__ = ("num_vertices", "edges", "labels")

    def __init__(
        self,
        num_vertices: int,
        edges: list[tuple[int, int, int]],  # (from, to, label id)
        labels: tuple[str, ...],  # label id -> bisection name
    ):
        for a, b, l in edges:
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError("edge endpoint out of range")
            if not (0 <= l < len(labels)):
                raise ValueError("edge label out of range")
        n = len(edges)
        if len({(a, l) for a, _, l in edges}) != n or len({(b, l) for _, b, l in edges}) != n:
            raise ValueError("a label is not a partial injection: two edges share a label and an endpoint")
        self.num_vertices = num_vertices
        self.edges = edges
        self.labels = labels


class SubshiftModel:
    """Groupoid of a subshift with the generator cover {S_x : x in X}."""

    def __init__(self, lang: Language):
        self.lang = lang
        self.labels = tuple(f"S_{x}" for x in range(lang.alphabet_size))

    def ball(self, window: bytes, r: int) -> LabeledBall:
        """The radius-r ball at the unit whose letters at positions -r .. r-1
        are ``window``."""
        if len(window) != 2 * r:
            raise ValueError(f"radius {r} needs a window of 2r = {2 * r} letters, got {len(window)}")
        # The fiber is {s^k}, free, so the ball is a path: the germ s^k is
        # vertex 2|k| - (k < 0), numbering k = 0, -1, 1, -2, 2, ... in
        # turn, and s^k -> s^(k+1) is an edge labeled by the letter at
        # position k.
        vertex = [2 * abs(k) - (k < 0) for k in range(-r, r + 1)]
        edges = [(vertex[i], vertex[i + 1], window[i]) for i in range(2 * r)]
        return LabeledBall(2 * r + 1, edges, self.labels)


class GermGroupoidModel:
    """Groupoid of germs of a self-similar group action on the boundary."""

    def __init__(self, group: SelfSimilarGroup):
        self.group = group
        self.labels = tuple(group.gen_names)
        # Canonical ids of the generators and their inverses, each once: a
        # repeat never finds a new germ.
        self.steps = list(dict.fromkeys(group.generator_states()))

    def ball(self, unit: tuple[tuple[int, ...], tuple[int, ...]], r: int) -> LabeledBall:
        if r < 0:
            raise ValueError("radius must be >= 0")
        grp = self.group
        gens = [grp.gens[n] for n in grp.gen_names]
        keys: dict[int, tuple] = {}  # canonical id -> its germ key at unit

        def key(k: int) -> tuple:
            if k not in keys:
                keys[k] = grp.germ_key(k, unit)
            return keys[k]

        # One breadth-first queue: vertex i = reps[i] at radius radii[i].
        # Each vertex multiplies every step once; below radius r the
        # products extend the ball, and the generators' products give its
        # edges, after the vertices they may have added.
        reps, radii = [grp.identity], [0]
        vertex = {key(grp.identity): 0}  # germ key -> its vertex
        edges = []
        for i, g in enumerate(reps):  # reps grows while it is walked
            products = {s: grp.multiply(s, g) for s in self.steps}
            if radii[i] < r:
                for p in products.values():
                    if key(p) not in vertex:
                        vertex[keys[p]] = len(reps)
                        reps.append(p)
                        radii.append(radii[i] + 1)
            for lid, s in enumerate(gens):
                j = vertex.get(key(products[s]))
                if j is not None:
                    edges.append((i, j, lid))  # g -> s.g, labeled by s
        return LabeledBall(len(reps), sorted(edges), self.labels)

    def periodic_units(self, pre_cap: int, period_cap: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All eventually periodic points (preperiod, period) with bounded
        preperiod and period.

        There are sum_{q <= period_cap} d^q * sum_{p <= pre_cap} d^p of them
        (periods from 1, preperiods from 0); past ``UNIT_CAP`` this raises
        :class:`ResourceError` before any point is built.
        """
        d = self.group.d
        count = _power_sum(d, 1, period_cap) * _power_sum(d, 0, pre_cap)
        if count > UNIT_CAP:
            raise ResourceError(f"pre={pre_cap}, period={period_cap} asks for more than {UNIT_CAP} periodic units")
        units = []
        for plen in range(1, period_cap + 1):
            for per in itertools.product(range(d), repeat=plen):
                for klen in range(pre_cap + 1):
                    for pre in itertools.product(range(d), repeat=klen):
                        units.append((pre, per))
        return units


def _power_sum(d: int, lo: int, hi: int) -> int:
    """sum_{lo <= k <= hi} d^k, or ``UNIT_CAP + 1`` once it passes the cap."""
    total, term = 0, d**lo
    for _ in range(lo, hi + 1):
        total += term
        if total > UNIT_CAP:
            return UNIT_CAP + 1
        term *= d
    return total


# -- canonical form of rooted labeled balls ---------------------------------


def canonical_code(ball: LabeledBall) -> bytes:
    """Canonical form under rooted labeled-digraph isomorphism.

    One breadth-first walk from the root numbers the vertices in visit
    order: at each dequeued vertex, label by label, its out-neighbour and
    then its in-neighbour.  Each label is a partial injection, so these
    names are structural and any root- and label-preserving isomorphism
    carries one ball's walk onto the other's: two balls get equal codes
    exactly when they are isomorphic.  A vertex the walk does not reach
    raises ``ValueError``.
    """
    m = ball.num_vertices
    # nbrs[v][2l] is v's out-neighbour by label l, nbrs[v][2l + 1] its
    # in-neighbour, -1 where there is none.
    nbrs = [[-1] * (2 * len(ball.labels)) for _ in range(m)]
    for a, b, l in ball.edges:
        nbrs[a][2 * l] = b
        nbrs[b][2 * l + 1] = a
    num = [-1] * m
    num[0] = 0
    order = [0]
    for v in order:  # order grows while it is walked: a queue
        for w in nbrs[v]:
            if w >= 0 and num[w] < 0:
                num[w] = len(order)
                order.append(w)
    if len(order) != m:
        raise ValueError(f"{m - len(order)} of {m} vertices unreachable from the root")
    return repr((m, sorted([(num[a], num[b], l) for a, b, l in ball.edges]))).encode()


def delta_enumerated(model, units, r: int) -> int:
    """Number of distinct radius-r ball classes at the given units: a
    certified lower bound on delta(r)."""
    if not units:
        raise ValueError("unit family must be nonempty")
    return len({canonical_code(model.ball(u, r)) for u in units})


def ball_to_dot(ball: LabeledBall) -> str:
    """Graphviz DOT text; the root is drawn with a double circle."""
    lines = ["digraph ball {"]
    lines.append('  0 [shape=doublecircle, label="root"];')
    for v in range(1, ball.num_vertices):
        lines.append(f'  {v} [shape=circle, label="{v}"];')
    for a, b, l in sorted(ball.edges):
        lines.append(f'  {a} -> {b} [label="{ball.labels[l]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
