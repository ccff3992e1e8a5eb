"""Per-layer tracing for the benchmark's traced passes.

Wrappers are installed from here, on the public names where callers look
them up (a module-level function is replaced in every package module that
imported it by name; a method is replaced on its class), so the package
source is not edited.  Each wrapper records a span: its duration is added to
its function's inclusive time (outermost call only, so recursion does not
count twice) and to the parent span's child time; a layer's self time is the
sum of its spans' durations minus their child time.

Spans of the coarse entry points are kept in memory and written out when the
pass ends.  The hot kernels (automaton states, basis inserts, germ steps) are
called up to a million times per pass; they are aggregated into counts and
times in place instead of being kept one by one.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

LAYERS = (
    "words",
    "subshift",
    "groupoid",
    "shift_algebra",
    "fields",
    "selfsimilar",
    "matrix_recursion",
    "verify",
    "cli",
)

VERIFY_CHECKS = (
    "01-sturmian-complexity",
    "02-delta-consistency",
    "03-main-inequality",
    "04-sturmian-sandwich",
    "05-oracle-equivalence",
    "06-module-bound",
    "07-adding-machine-matrices",
    "08-grig-witness",
    "09-grig-structure",
    "10-homomorphism",
    "11-thinned-growth",
    "12-contraction",
    "13-determinism",
)

# (layer, attribute in groupoid_growth.<layer>, stat name, hot)
TARGETS = [
    ("words", "WordSource.prefix", "prefix", False),
    ("subshift", "build_language", "build_language", False),
    ("groupoid", "canonical_code", "canonical_code", False),
    ("groupoid", "SubshiftModel.ball", "ball", False),
    ("groupoid", "GermGroupoidModel.ball", "ball", False),
    ("groupoid", "delta_enumerated", "delta_enumerated", False),
    ("shift_algebra", "growth_dims", "growth_dims", False),
    ("shift_algebra", "semigroup_dims", "semigroup_dims", False),
    ("shift_algebra", "module_growth", "module_growth", False),
    ("shift_algebra", "expansive_certificate", "expansive", False),
    ("fields", "RowBasis.insert", "rowbasis.insert", True),
    ("fields", "BitRowBasis.insert", "bitbasis.insert", True),
    ("selfsimilar", "SelfSimilarGroup.__init__", "group_init", False),
    ("selfsimilar", "SelfSimilarGroup.canonical_key", "canonical_key", True),
    ("selfsimilar", "SelfSimilarGroup.multiply", "multiply", True),
    ("selfsimilar", "SelfSimilarGroup.restriction", "restriction", True),
    ("selfsimilar", "SelfSimilarGroup.germ_is_unit", "germ_is_unit", True),
    ("selfsimilar", "SelfSimilarGroup.nucleus", "nucleus", False),
    ("selfsimilar", "SelfSimilarGroup.contraction_estimate", "contraction", False),
    ("matrix_recursion", "thinned_growth", "thinned_growth", False),
    ("matrix_recursion", "thinned_dims_at_level", "level", False),
    ("matrix_recursion", "image_at_level", "image_at_level", False),
    ("matrix_recursion", "homomorphism_check", "homomorphism_check", False),
    ("verify", "run_checks", "run_checks", False),
    ("verify", "report_text", "report_text", False),
] + [("verify", "check_" + c.replace("-", "_"), "check." + c, False) for c in VERIFY_CHECKS]


class Stat:
    __slots__ = ("calls", "seconds", "depth", "accepted", "amount", "peak")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0  # inclusive, outermost calls only
        self.depth = 0
        self.accepted = 0  # inserts that raised the rank
        self.amount = 0  # letters produced / factors enumerated
        self.peak = 0  # longest prefix a language was built from


def layer_metric_names(job_names) -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    return list(Tracer().metrics(job_names))


class Tracer:
    """Span and counter collector for one traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.job_seconds: dict[str, float] = {}
        self.states_created = 0
        self.absent: list[str] = []
        self.spans: list = []  # (name, start, end, parent span index) of kept spans
        self._open: list[int] = []  # indices of the kept spans now open
        self._child = [0.0]  # per open span: time covered by its children
        self._groups: list = []  # SelfSimilarGroups built during the current job

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        import groupoid_growth

        modules = [
            importlib.import_module(f"groupoid_growth.{m}") for m in LAYERS
        ] + [groupoid_growth]
        for layer, attr, stat_name, hot in TARGETS:
            owner = importlib.import_module(f"groupoid_growth.{layer}")
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"groupoid_growth.{layer}.{attr}")
                continue
            stat = self.stats.setdefault(stat_name, Stat())
            wrapper = self._wrap(fn, f"{layer}.{stat_name}", layer, stat, hot, _AFTER.get(stat_name))
            if cls_name:
                setattr(owner, fn_name, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, span_name, layer, stat, hot, after):
        clock = time.perf_counter
        child = self._child
        layer_self = self.layer_self
        spans, open_ = self.spans, self._open
        tracer = self

        def traced(*args, **kwargs):
            child.append(0.0)
            if not hot:
                sid = len(spans)
                spans.append(None)
                parent = open_[-1] if open_ else None
                open_.append(sid)
            outer = stat.depth == 0
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stat.depth -= 1
                stat.calls += 1
                if outer:
                    stat.seconds += dur
                layer_self[layer] += dur - child.pop()
                child[-1] += dur
                if not hot:
                    open_.pop()
                    spans[sid] = (span_name, t0, t1, parent)
            if after is not None:
                after(tracer, stat, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    @contextmanager
    def job(self, name: str):
        """Root span of one CLI job, in the ``cli`` layer."""
        self._child.append(0.0)
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            dur = t1 - t0
            self.layer_self["cli"] += dur - self._child.pop()
            self._open.pop()
            self.spans[sid] = (f"cli.job.{name}", t0, t1, None)
            self.job_seconds[name] = self.job_seconds.get(name, 0.0) + dur
            self.states_created += sum(len(g.perms) for g in self._groups)
            self._groups.clear()

    def metrics(self, job_names) -> dict[str, float]:
        s = self.stats.get
        zero = Stat()

        def st(name):
            return s(name) or zero

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "words.prefix_s": st("prefix").seconds,
            "words.prefix_letters": st("prefix").amount,
            "subshift.build_language_s": st("build_language").seconds,
            "subshift.build_language_calls": st("build_language").calls,
            "subshift.prefix_len_max": st("build_language").peak,
            "subshift.factors_total": st("build_language").amount,
            "groupoid.canonical_code_s": st("canonical_code").seconds,
            "groupoid.canonical_code_calls": st("canonical_code").calls,
            "groupoid.ball_s": st("ball").seconds,
            "shift_algebra.growth_dims_s": st("growth_dims").seconds,
            "shift_algebra.expansive_s": st("expansive").seconds,
            "shift_algebra.module_growth_s": st("module_growth").seconds,
        }
        for basis in ("rowbasis", "bitbasis"):
            ins = st(f"{basis}.insert")
            m[f"fields.{basis}.insert_calls"] = ins.calls
            m[f"fields.{basis}.insert_s"] = ins.seconds
            m[f"fields.{basis}.accept_ratio"] = ratio(ins.accepted, ins.calls)
        m.update(
            {
                "selfsimilar.canonical_key_calls": st("canonical_key").calls,
                "selfsimilar.canonical_key_s": st("canonical_key").seconds,
                "selfsimilar.multiply_calls": st("multiply").calls,
                "selfsimilar.restriction_calls": st("restriction").calls,
                "selfsimilar.contraction_s": st("contraction").seconds,
                "selfsimilar.states_created": self.states_created,
                "matrix_recursion.thinned_growth_s": st("thinned_growth").seconds,
                "matrix_recursion.levels_tried": st("level").calls,
                "matrix_recursion.level_s": st("level").seconds,
                "verify.check_calls": sum(st(f"check.{c}").calls for c in VERIFY_CHECKS),
            }
        )
        for c in VERIFY_CHECKS:
            m[f"verify.{c}_s"] = st(f"check.{c}").seconds
        for j in job_names:
            m[f"cli.job.{j}_s"] = self.job_seconds.get(j, 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer]
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent}) + "\n")


def _after_prefix(tracer, stat, args, result):
    stat.amount += len(result)


def _after_build_language(tracer, stat, args, lang):
    stat.peak = max(stat.peak, lang.prefix_len)
    stat.amount += sum(len(bucket) for bucket in lang.factors)


def _after_insert(tracer, stat, args, raised):
    stat.accepted += bool(raised)


def _after_group_init(tracer, stat, args, result):
    tracer._groups.append(args[0])


_AFTER = {
    "prefix": _after_prefix,
    "build_language": _after_build_language,
    "rowbasis.insert": _after_insert,
    "bitbasis.insert": _after_insert,
    "group_init": _after_group_init,
}
