import random

import pytest

from groupoid_growth import groupoid
from groupoid_growth.groupoid import (
    GermGroupoidModel,
    LabeledBall,
    SubshiftModel,
    ball_to_dot,
    canonical_code,
    delta_enumerated,
)
from groupoid_growth.selfsimilar import (
    ADDING_MACHINE,
    GRIGORCHUK,
    SelfSimilarGroup,
    WreathRecursion,
)
from groupoid_growth.subshift import build_language
from groupoid_growth.words import golden_sturmian, thue_morse


@pytest.fixture(scope="module")
def golden_model():
    return SubshiftModel(build_language(golden_sturmian(), n_max=20, prefix_budget=8192))


@pytest.fixture(scope="module")
def adding_model():
    return GermGroupoidModel(SelfSimilarGroup(ADDING_MACHINE))


@pytest.fixture(scope="module")
def grig_model():
    return GermGroupoidModel(SelfSimilarGroup(GRIGORCHUK))


def reference_code(ball: LabeledBall) -> bytes:
    """Canonical form for any rooted labeled digraph, partial injections or
    not: colors start from distance-to-root, are refined by in/out
    label-color multisets to a fixpoint, and remaining ties are broken by
    individualization with full backtracking, taking the minimum code."""
    m = ball.num_vertices
    out_adj = [[] for _ in range(m)]
    in_adj = [[] for _ in range(m)]
    und = [set() for _ in range(m)]
    for a, b, l in ball.edges:
        out_adj[a].append((l, b))
        in_adj[b].append((l, a))
        und[a].add(b)
        und[b].add(a)
    dist = [-1] * m
    dist[0] = 0
    queue = [0]
    for v in queue:
        for w in und[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)

    def refine(colors):
        while True:
            sigs = [
                (
                    colors[v],
                    tuple(sorted((l, colors[w]) for l, w in out_adj[v])),
                    tuple(sorted((l, colors[w]) for l, w in in_adj[v])),
                )
                for v in range(m)
            ]
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def encode(colors):
        order = sorted(range(m), key=lambda v: colors[v])
        rank = {v: i for i, v in enumerate(order)}
        edges = sorted((rank[a], rank[b], l) for a, b, l in ball.edges)
        return repr((m, rank[0], tuple(dist[v] for v in order), tuple(edges))).encode()

    def search(colors):
        colors = refine(colors)
        classes = {}
        for v in range(m):
            classes.setdefault(colors[v], []).append(v)
        ambiguous = sorted(c for c, vs in classes.items() if len(vs) > 1)
        if not ambiguous:
            return encode(colors)
        best = None
        for v in classes[ambiguous[0]]:
            branched = list(colors)
            branched[v] = m + max(colors) + 1  # fresh color individualizes v
            code = search(branched)
            if best is None or code < best:
                best = code
        return best

    # Root gets a distinct parity bit so root-preservation is enforced.
    return search([dist[v] * 2 + (1 if v == 0 else 0) for v in range(m)])


def assert_same_classes(balls):
    """canonical_code and reference_code split ``balls`` into the same
    isomorphism classes: for every ordered pair, equal codes under one
    exactly when equal under the other."""
    ours = [canonical_code(b) for b in balls]
    ref = [reference_code(b) for b in balls]
    assert len(set(ours)) == len(set(ref)) == len(set(zip(ours, ref)))
    return len(set(ours))


def random_ball(rng: random.Random, max_vertices: int = 9, max_labels: int = 3) -> LabeledBall:
    """A connected ball in which every label is a partial injection."""
    m = rng.randint(1, max_vertices)
    k = rng.randint(1, max_labels)
    out, inn = set(), set()  # (vertex, label) pairs already used
    edges = []

    def add(a, b, l):
        if (a, l) not in out and (b, l) not in inn:
            out.add((a, l))
            inn.add((b, l))
            edges.append((a, b, l))
            return True
        return False

    for v in range(1, m):  # attach v to an earlier vertex, either direction
        while True:
            u, l = rng.randrange(v), rng.randrange(k)
            if add(u, v, l) if rng.random() < 0.5 else add(v, u, l):
                break
    for _ in range(rng.randint(0, 2 * m)):
        add(rng.randrange(m), rng.randrange(m), rng.randrange(k))
    return LabeledBall(m, edges, tuple("xyz"[:k]))


def relabeled(rng: random.Random, ball: LabeledBall, permute_labels: bool) -> LabeledBall:
    """Vertices renamed (the root stays 0) and edges shuffled; optionally
    labels permuted too, which may change the class."""
    m, k = ball.num_vertices, len(ball.labels)
    perm = [0] + rng.sample(range(1, m), m - 1)
    lperm = rng.sample(range(k), k) if permute_labels else list(range(k))
    edges = [(perm[a], perm[b], lperm[l]) for a, b, l in ball.edges]
    rng.shuffle(edges)
    return LabeledBall(m, edges, ball.labels)


BASILICA = WreathRecursion(2, {"a": ((0, 1), ("", "b")), "b": ((1, 0), ("", "a"))})
HANOI = WreathRecursion(
    3,
    {"a": ((1, 0, 2), ("", "", "a")), "b": ((2, 1, 0), ("", "b", "")), "c": ((0, 2, 1), ("c", "", ""))},
)
GERM_GROUPS = {"grigorchuk": GRIGORCHUK, "adding": ADDING_MACHINE, "basilica": BASILICA, "hanoi": HANOI}


def reference_germ_is_unit(grp: SelfSimilarGroup, g: int, point: tuple) -> bool:
    """Germ triviality by an early-exit walk: follow x through g; reaching
    the identity is a unit, a moved letter or a repeated (canonical id,
    phase) pair a nontrivial germ."""
    pre, per = point
    k, seen = g, set()
    for pos in range(10_000):
        if k == grp.identity:
            return True
        phase = None if pos < len(pre) else (pos - len(pre)) % len(per)
        x = pre[pos] if phase is None else per[phase]
        if grp.perms[k][x] != x:
            return False
        if phase is not None:
            if (k, phase) in seen:
                return False
            seen.add((k, phase))
        k = grp.children[k][x]
    raise AssertionError("germ walk did not settle")


def reference_germ_ball(model: GermGroupoidModel, unit: tuple, r: int) -> LabeledBall:
    """The germ ball by a pairwise scan: each new element is tested against
    every vertex found so far, h^-1 g by :func:`reference_germ_is_unit`."""
    grp = model.group
    gens = [grp.gens[n] for n in grp.gen_names]
    steps = gens + [grp.inverse(s) for s in gens]
    reps = [grp.identity]
    vertex = {grp.identity: 0}  # canonical id -> its vertex, once known

    def find(k: int):
        if k not in vertex:
            for i, h in enumerate(reps):
                if reference_germ_is_unit(grp, grp.multiply(grp.inverse(h), k), unit):
                    vertex[k] = i
                    break
        return vertex.get(k)

    frontier = [grp.identity]
    for _ in range(r):
        nxt = []
        for g in frontier:
            for s in steps:
                p = grp.multiply(s, g)
                if find(p) is None:
                    vertex[p] = len(reps)
                    reps.append(p)
                    nxt.append(p)
        frontier = nxt
    edges = set()
    for i, g in enumerate(reps):
        for lid, s in enumerate(gens):
            j = find(grp.multiply(s, g))
            if j is not None:
                edges.add((i, j, lid))
    return LabeledBall(len(reps), sorted(edges), model.labels)


class TestLabeledBall:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledBall(2, [(0, 2, 0)], ("S",))
        with pytest.raises(ValueError):
            LabeledBall(2, [(0, 1, 1)], ("S",))
        with pytest.raises(ValueError):
            LabeledBall(2, [(0, 1, 0), (0, 1, 0)], ("S",))

    def test_rejects_two_out_edges_with_one_label(self):
        # A star of same-label out-edges: no bisection makes one.
        with pytest.raises(ValueError, match="partial injection"):
            LabeledBall(6, [(0, i, 0) for i in range(1, 6)], ("x",))
        LabeledBall(3, [(0, 1, 0), (0, 2, 1)], ("x", "y"))

    def test_rejects_two_in_edges_with_one_label(self):
        with pytest.raises(ValueError, match="partial injection"):
            LabeledBall(3, [(1, 0, 0), (2, 0, 0)], ("x",))
        LabeledBall(3, [(1, 0, 0), (2, 0, 1)], ("x", "y"))


class TestSubshiftBall:
    def test_is_a_path(self, golden_model):
        ball = golden_model.ball(golden_model.lang.factors[6][0], 3)
        assert ball.num_vertices == 7
        assert len(ball.edges) == 6
        outdeg = {}
        indeg = {}
        for a, b, _ in ball.edges:
            outdeg[a] = outdeg.get(a, 0) + 1
            indeg[b] = indeg.get(b, 0) + 1
        assert max(outdeg.values()) == 1 and max(indeg.values()) == 1

    def test_edge_labels_spell_window(self, golden_model):
        word = golden_model.lang.factors[4][0]
        ball = golden_model.ball(word, 2)
        # Walking the path from the leftmost vertex reads off the window.
        succ = {a: (b, l) for a, b, l in ball.edges}
        start = ({v for v in range(ball.num_vertices)} - {b for _, b, _ in ball.edges}).pop()
        letters = []
        v = start
        while v in succ:
            v, l = succ[v][0], succ[v][1]
            letters.append(l)
        assert bytes(letters) == word

    def test_radius_checks(self, golden_model):
        # A radius-r ball takes exactly the 2r letters at positions -r .. r-1.
        window = golden_model.lang.factors[4][0]
        for r in (3, 1, -1):
            with pytest.raises(ValueError, match=f"radius {r} needs a window of 2r = {2 * r} letters, got 4"):
                golden_model.ball(window, r)


class TestGamma:
    # gamma(x, r) is the number of vertices of the radius-r ball at x.
    def test_subshift_linear(self, golden_model):
        word = golden_model.lang.factors[10][0]
        for r in range(5):
            assert golden_model.ball(word[5 - r : 5 + r], r).num_vertices == 2 * r + 1

    def test_adding_machine_linear(self, adding_model):
        point = ((), (0,))
        for r in range(6):
            assert adding_model.ball(point, r).num_vertices == 2 * r + 1

    def test_monotone_and_degree_bounded(self, grig_model):
        point = ((), (0,))
        prev = None
        for r in range(5):
            g = grig_model.ball(point, r).num_vertices
            if prev is not None:
                assert prev <= g <= (2 * len(grig_model.labels) + 1) * prev
            prev = g

    def test_grig_gamma_value(self, grig_model):
        # At 0^inf the germ of d is a unit and b, c agree (bc = d), so the
        # radius-1 ball is {identity, a, b}.
        assert grig_model.ball(((), (0,)), 1).num_vertices == 3


class TestCanonicalCode:
    def test_relabel_invariance(self):
        rng = random.Random(9)
        base = LabeledBall(5, [(0, 1, 0), (1, 2, 1), (0, 3, 1), (3, 4, 0), (4, 2, 0)], ("x", "y"))
        ref = canonical_code(base)
        for _ in range(10):
            perm = [0] + rng.sample(range(1, 5), 4)  # root stays vertex 0
            edges = [(perm[a], perm[b], l) for a, b, l in base.edges]
            assert canonical_code(LabeledBall(5, edges, ("x", "y"))) == ref

    def test_label_sensitivity(self):
        a = LabeledBall(2, [(0, 1, 0)], ("x", "y"))
        b = LabeledBall(2, [(0, 1, 1)], ("x", "y"))
        assert canonical_code(a) != canonical_code(b)

    def test_root_sensitivity(self):
        # A path rooted at its end vs rooted in the middle.
        a = LabeledBall(3, [(0, 1, 0), (1, 2, 0)], ("x",))
        b = LabeledBall(3, [(1, 0, 0), (0, 2, 0)], ("x",))
        assert canonical_code(a) != canonical_code(b)

    def test_rejects_unreachable_vertex(self):
        with pytest.raises(ValueError, match="unreachable"):
            canonical_code(LabeledBall(4, [(0, 1, 0), (2, 3, 0)], ("x",)))

    def test_same_classes_as_reference_on_random_balls(self):
        # 160 balls, so 25,600 ordered pairs; half are relabeled copies.
        rng = random.Random(20)
        balls = []
        for _ in range(80):
            ball = random_ball(rng)
            balls += [ball, relabeled(rng, ball, permute_labels=rng.random() < 0.5)]
        classes = assert_same_classes(balls)
        assert 1 < classes < len(balls)

    @pytest.mark.parametrize("source", [thue_morse, golden_sturmian], ids=["thue_morse", "golden"])
    def test_same_classes_as_reference_on_windows(self, source):
        model = SubshiftModel(build_language(source(), n_max=14, prefix_budget=8192))
        for r in range(8):
            balls = [model.ball(f, r) for f in model.lang.factors_at(2 * r)]
            assert assert_same_classes(balls) == len(balls)

    @pytest.mark.parametrize("rec", [GRIGORCHUK, ADDING_MACHINE], ids=["grigorchuk", "adding"])
    def test_same_classes_as_reference_on_germs(self, rec):
        model = GermGroupoidModel(SelfSimilarGroup(rec))
        units = model.periodic_units(2, 2)
        for r in range(4):
            assert_same_classes([model.ball(u, r) for u in units])


class TestGermBallReference:
    @pytest.mark.parametrize("name", GERM_GROUPS)
    def test_same_balls_as_pairwise_scan(self, name):
        # Two groups, so neither builder sees the ids the other built.
        model = GermGroupoidModel(SelfSimilarGroup(GERM_GROUPS[name]))
        ref_model = GermGroupoidModel(SelfSimilarGroup(GERM_GROUPS[name]))
        for unit in model.periodic_units(2, 2):
            for r in range(5):
                ball, ref = model.ball(unit, r), reference_germ_ball(ref_model, unit, r)
                assert (ball.num_vertices, ball.edges) == (ref.num_vertices, ref.edges), (unit, r)

    @pytest.mark.parametrize("name", GERM_GROUPS)
    def test_one_product_per_vertex_and_step(self, name):
        # The products that extend the ball also give its edges.
        model = GermGroupoidModel(SelfSimilarGroup(GERM_GROUPS[name]))
        grp, calls = model.group, [0]
        multiply = grp.multiply

        def counted(g, h):
            calls[0] += 1
            return multiply(g, h)

        grp.multiply = counted
        for unit in model.periodic_units(1, 2):
            calls[0] = 0
            ball = model.ball(unit, 5)
            assert calls[0] <= ball.num_vertices * len(model.steps), unit

    @staticmethod
    def seeded_elements(grp: SelfSimilarGroup, count: int) -> list[int]:
        rng = random.Random(19)
        letters = "".join(grp.gen_names) + "".join(grp.gen_names).upper()
        return [grp.word_id("".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))) for _ in range(count)]

    @pytest.mark.parametrize("name", GERM_GROUPS)
    def test_germ_is_unit_matches_walk(self, name):
        grp = SelfSimilarGroup(GERM_GROUPS[name])
        elements = self.seeded_elements(grp, 12)
        for unit in GermGroupoidModel(grp).periodic_units(3, 3):
            for g in elements:
                assert grp.germ_is_unit(g, unit) == reference_germ_is_unit(grp, g, unit), (unit, g)

    @pytest.mark.parametrize("name", GERM_GROUPS)
    def test_equal_keys_iff_equal_germs(self, name):
        grp = SelfSimilarGroup(GERM_GROUPS[name])
        elements = self.seeded_elements(grp, 8)
        for unit in GermGroupoidModel(grp).periodic_units(2, 2):
            keys = [grp.germ_key(g, unit) for g in elements]
            for g, kg in zip(elements, keys):
                for h, kh in zip(elements, keys):
                    same = reference_germ_is_unit(grp, grp.multiply(grp.inverse(h), g), unit)
                    assert (kg == kh) == same, (unit, g, h)


class TestPeriodicUnits:
    @pytest.mark.parametrize("pre, period", [(0, 1), (2, 2), (3, 1), (1, 3)])
    def test_family_at_the_cap_is_built(self, grig_model, monkeypatch, pre, period):
        # sum_{q <= period} 2^q * sum_{p <= pre} 2^p points, all distinct.
        size = (2 ** (period + 1) - 2) * (2 ** (pre + 1) - 1)
        monkeypatch.setattr(groupoid, "UNIT_CAP", size)
        units = grig_model.periodic_units(pre, period)
        assert len(units) == len(set(units)) == size


class TestDelta:
    # A subshift ball is a path spelling its window, so the windows of
    # length 2r give p(2r) distinct classes: the CLI prints delta(r) = p(2r).
    @staticmethod
    def window_classes(model: SubshiftModel, r: int) -> int:
        return len({canonical_code(model.ball(f, r)) for f in model.lang.factors_at(2 * r)})

    def test_matches_formula_golden(self, golden_model):
        for r in range(1, 6):
            assert self.window_classes(golden_model, r) == golden_model.lang.complexity(2 * r) == 2 * r + 1

    def test_matches_formula_thue_morse(self):
        model = SubshiftModel(build_language(thue_morse(), n_max=12, prefix_budget=8192))
        for r in range(1, 6):
            assert self.window_classes(model, r) == model.lang.complexity(2 * r)

    def test_incomplete_units_give_a_lower_bound(self, grig_model):
        # Fewer units see no more classes: the count is a lower bound.
        units = grig_model.periodic_units(2, 2)
        assert delta_enumerated(grig_model, units[:1], 2) == 1
        assert delta_enumerated(grig_model, units[:6], 2) <= delta_enumerated(grig_model, units, 2)

    def test_germ_lower_bound(self, grig_model):
        units = grig_model.periodic_units(1, 1)
        assert delta_enumerated(grig_model, units, 1) >= 2

    def test_empty_units_rejected(self, grig_model):
        with pytest.raises(ValueError):
            delta_enumerated(grig_model, [], 1)


class TestDot:
    def test_root_and_edges_present(self, golden_model):
        ball = golden_model.ball(golden_model.lang.factors[2][0], 1)
        dot = ball_to_dot(ball)
        assert dot.startswith("digraph ball {")
        assert "doublecircle" in dot
        assert dot.count("->") == len(ball.edges)
        assert dot.endswith("}\n")
