"""Command-line front end.

Every subcommand reads JSON descriptors, runs one library operation, and
emits deterministic artifacts: CSV tables (with a config-digest comment
row), DOT graphs, or plain text.  A table of a language read off a prefix,
which is not exact, has a second comment row ``#language=prefix,<letters
read>``, and a DOT ball of one starts with the comment ``// language=...``.
Exit codes: 0 success, 2 usage error, 3 resource cap hit, 4 violated
internal identity.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import matrix_recursion as mr
from . import shift_algebra as sa
from .errors import IdentityError, ResourceError
from .fields import parse_field
from .groupoid import GermGroupoidModel, SubshiftModel, ball_to_dot, delta_enumerated
from .selfsimilar import group_from_spec, parse_point
from .subshift import Language, build_language
from .verify import format_report, run_checks
from .words import parse_letters, read_fields, source_from_config

EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IDENTITY = 4


def _read_spec(text: str):
    """Inline JSON, or a path to a JSON file: text that names a file, holds a
    ``/`` or ends in ``.json``, so a missing file is reported as such.  Any
    other text is returned stripped, as a preset name."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    if "/" in text or text.endswith(".json") or os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return text


def _config_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _emit_csv(path: str | None, header: list[str], rows: list[list], config, lang: Language | None = None) -> None:
    """CSV with a ``#config`` digest row and, for a language read off a
    prefix, a ``#language=prefix,<letters read>`` row after it."""
    lines = [f"#config={_config_digest(config)}"]
    if lang is not None and not lang.exact:
        lines.append(f"#{_prefix_note(lang)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(map(_csv_cell, row)))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    s = str(value)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def _prefix_note(lang: Language) -> str:
    return f"language=prefix,{lang.prefix_len}"


def _language(cfg, n_max: int, budget) -> Language:
    """Factor language of a source descriptor up to length ``n_max``, read
    within ``budget`` letters, which must be positive, or within
    :func:`build_language`'s default when none is given."""
    if budget is not None:
        _positive("budget", budget)
    return build_language(source_from_config(cfg), n_max, budget)


def _language_table(args, length: int, header: list[str], rows, **fields) -> int:
    """Read ``--source``, build its language up to ``length`` and emit
    ``rows(lang)`` as CSV.  The digest payload holds the command, the source
    and ``fields``, plus ``budget`` when one was given: the default budget
    is a function of the length, which ``fields`` determine."""
    cfg = _read_spec(args.source)
    lang = _language(cfg, length, args.budget)
    config = {"cmd": args.command, "source": cfg, **fields}
    if args.budget is not None:
        config["budget"] = args.budget
    _emit_csv(args.csv, header, rows(lang), config, lang)
    return 0


def _model_from_arg(text: str):
    cfg = _read_spec(text)
    if not isinstance(cfg, dict):
        cfg = {"kind": "germ", "group": cfg}
    kind = cfg.get("kind")
    if kind == "subshift":
        _, *values = read_fields(cfg, "subshift model", kind=str, source=dict, n_max=(int, 30), budget=(int, None))
        return cfg, SubshiftModel(_language(*values))
    if kind == "germ":
        _, group = read_fields(cfg, "germ model", kind=str, group=object)
        return cfg, GermGroupoidModel(group_from_spec(group))
    raise ValueError(f"model kind must be 'subshift' or 'germ', got {kind!r}")


def _parse_unit(model, text: str, r: int):
    """A point 'pre|period' of a germ model, or of a subshift model the
    radius-r window of '<letters>:<origin>': the 2r letters at positions
    -r .. r-1, where the letter at position k is ``letters[origin + k]``.
    The window must be a factor of the language read."""
    if isinstance(model, GermGroupoidModel):
        return parse_point(text, model.group.d)
    word, colon, origin = text.rpartition(":")
    if not (colon and origin.isdecimal()):
        raise ValueError(f"subshift unit {text!r}: the syntax is '<letters>:<origin>'")
    lang, o = model.lang, int(origin)
    letters = bytes(parse_letters(word, lang.alphabet_size, f"unit {text!r}"))
    if 2 * r > lang.n_max:
        raise ValueError(f"unit {text!r}: a radius-{r} window is longer than n_max = {lang.n_max}, so it cannot be checked")
    if not r <= o <= len(letters) - r:
        raise ValueError(f"window too short for radius {r}")
    window = letters[o - r : o + r]
    if window not in lang.factors_at(2 * r):
        raise ValueError(f"unit {text!r}: its radius-{r} window {word[o - r : o + r]} is not a factor of the language read")
    return window


# -- subcommand implementations -------------------------------------------------


def cmd_complexity(args) -> int:
    n_max = _positive("--n-max", args.n_max)

    def rows(lang):
        return [[n, lang.complexity(n)] for n in range(1, n_max + 1)]

    return _language_table(args, n_max, ["n", "p_n"], rows, n_max=n_max)


def cmd_delta(args) -> int:
    r = _positive("--r", args.r)
    cfg, model = _model_from_arg(args.model)
    policy = args.units_policy
    if policy == "windows":
        if not isinstance(model, SubshiftModel):
            raise ValueError("units-policy 'windows' needs a subshift model")
        lang = model.lang
        if 2 * r > lang.n_max:
            raise ValueError(f"--r {r}: a radius-{r} window is longer than n_max = {lang.n_max}")
        # A subshift ball is a path spelling its window: delta(r) = p(2r).
        row = [r, lang.complexity(2 * r), "exact" if lang.exact else "lower_bound"]
    elif policy.startswith("periodic:"):
        if not isinstance(model, GermGroupoidModel):
            raise ValueError("units-policy 'periodic:...' needs a germ model")
        pairs = [kv.partition("=") for kv in policy[len("periodic:") :].split(",")]
        if sorted(k for k, _, _ in pairs) != ["period", "pre"] or not all(v.isdecimal() for _, _, v in pairs):
            raise ValueError(f"units policy {policy!r}: the syntax is 'periodic:pre=<int>,period=<int>'")
        params = {k: int(v) for k, _, v in pairs}
        units = model.periodic_units(params["pre"], params["period"])
        row, lang = [r, delta_enumerated(model, units, r), "lower_bound"], None
    else:
        raise ValueError(f"unknown units policy {policy!r}")
    _emit_csv(args.csv, ["r", "delta", "flag"], [row], {"cmd": "delta", "model": cfg, "r": r, "policy": policy}, lang)
    return 0


def cmd_ball(args) -> int:
    if args.r < 0:
        raise ValueError("--r must be >= 0")
    cfg, model = _model_from_arg(args.model)
    unit = _parse_unit(model, args.unit, args.r)
    ball = model.ball(unit, args.r)
    dot = ball_to_dot(ball)
    if isinstance(model, SubshiftModel) and not model.lang.exact:
        dot = f"// {_prefix_note(model.lang)}\n{dot}"
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    print(f"vertices={ball.num_vertices} edges={len(ball.edges)}", file=sys.stderr)
    return 0


def cmd_algebra_growth(args) -> int:
    n_max = _positive("--n-max", args.n_max)
    if args.oracle_upto < 0:
        raise ValueError("--oracle-upto must be >= 0")
    field = parse_field(args.field)

    def rows(lang):
        dims = sa.growth_dims(lang, n_max, field)
        if args.oracle_upto:
            k = min(args.oracle_upto, n_max)
            if dims[:k] != sa.bruteforce_dims(lang, k, field)[:k]:
                raise IdentityError("levelwise growth disagrees with brute-force oracle")
        table = []
        for n, dim in dims:
            lower = (n // 2) * lang.complexity(n // 2)
            upper = (2 * n + 1) * lang.complexity(2 * n)
            table.append([n, dim, lower, upper, lower <= dim <= upper])
        if not all(r[4] for r in table):
            raise IdentityError("growth bound floor(n/2)p(floor(n/2)) <= dim V^n <= (2n+1)p(2n) violated")
        return table

    header = ["n", "dim", "lower_bound", "upper_bound", "bound_ok"]
    return _language_table(args, 2 * n_max + 1, header, rows, n_max=n_max, field=args.field)


def cmd_semigroup_growth(args) -> int:
    n_max = _positive("--n-max", args.n_max)

    def rows(lang):
        return [[n, d] for n, d in sa.semigroup_dims(lang, n_max)]

    return _language_table(args, n_max, ["n", "dim"], rows, n_max=n_max)


def cmd_module_growth(args) -> int:
    n_max = _positive("--n-max", args.n_max)
    parse_field(args.field)  # validated and digested; the table does not depend on it

    def rows(lang):
        return [[n, d, 2 * n + 1] for n, d in sa.module_growth(lang, n_max)]

    return _language_table(args, 2 * n_max + 1, ["n", "dim", "gamma"], rows, n_max=n_max, field=args.field)


def cmd_expansive(args) -> int:
    n = _positive("--n", args.n)

    def rows(lang):
        return [[m, lang.complexity(2 * m), sa.expansive_certificate(lang, m)] for m in range(1, n + 1)]

    return _language_table(args, 2 * n, ["n", "windows", "atoms"], rows, n=n)


def cmd_nucleus(args) -> int:
    group = group_from_spec(_read_spec(args.group))
    nucleus = group.nucleus(cap=args.cap)
    names = sorted(mr.element_name(group, s) for s in nucleus)
    print(f"nucleus size {len(nucleus)} (closure complete: True)")  # nucleus() raises otherwise
    print("states: " + " ".join(names))
    return 0


def cmd_germ(args) -> int:
    group = group_from_spec(_read_spec(args.group))
    g = group.word_id(args.element)
    point = parse_point(args.point, group.d)
    print("unit" if group.germ_is_unit(g, point) else "nontrivial")
    return 0


def cmd_matrix_recursion(args) -> int:
    group = group_from_spec(_read_spec(args.group))
    field = parse_field(args.field)
    level = _positive("--levels", args.levels)
    mr.check_level(group.d, level, printed=args.print_matrix)
    elem = mr.parse_element(group, args.element, field)
    m = mr.image_at_level(group, elem, level, field)
    if args.print_matrix:
        print(mr.format_matrix(group, m, level))
    else:
        size = group.d**level
        print(f"level {level}: {len(m)} nonzero entries in {size}x{size}")
    return 0


def cmd_thinned_growth(args) -> int:
    spec = _read_spec(args.group)
    group = group_from_spec(spec)
    field = parse_field(args.field)
    n_max = _positive("--n-max", args.n_max)
    res = mr.thinned_growth(group, n_max, field)
    rows = [[n, d, res.level, res.stabilized] for n, d in res.dims]
    _emit_csv(
        args.csv,
        ["n", "dim", "level", "stabilized"],
        rows,
        {"cmd": "thinned-growth", "group": spec, "n_max": n_max, "field": args.field},
    )
    return 0


def cmd_verify_all(args) -> int:
    results = run_checks(args.profile, seed=args.seed)
    sys.stdout.write(format_report(args.profile, args.seed, results))
    return 0 if all(r.ok for r in results) else 1


# -- argument parsing ------------------------------------------------------------


class _OnDemandParser(argparse.ArgumentParser):
    """A subcommand's parser that records its ``add_argument`` and
    ``set_defaults`` calls; its first parse makes it a plain
    ``ArgumentParser``, replays them in order and parses, so a run sets up
    only the parser of the command it runs."""

    def __init__(self, **kwargs):
        self._kwargs, self._calls = kwargs, []

    def add_argument(self, *args, **kwargs):
        self._calls.append(("add_argument", args, kwargs))

    def set_defaults(self, **kwargs):
        self._calls.append(("set_defaults", (), kwargs))

    def parse_known_args(self, args, namespace):
        self.__class__ = argparse.ArgumentParser
        argparse.ArgumentParser.__init__(self, **self._kwargs)
        for name, a, kw in self._calls:
            getattr(self, name)(*a, **kw)
        return self.parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  A subcommand's first parse
    sets its parser up (see ``_OnDemandParser``); no call leaves any other
    state, since each call fills a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="groupoid-growth",
        description="Exact growth and complexity of subshift/germ groupoids and their algebras",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_OnDemandParser)

    sp = sub.add_parser("complexity", help="subword complexity p(n)")
    sp.add_argument("--source", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_complexity)

    sp = sub.add_parser("delta", help="groupoid complexity delta(r)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--units-policy", default="windows")
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_delta)

    sp = sub.add_parser("ball", help="Cayley-graph ball at a unit (DOT)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--unit", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--dot")
    sp.set_defaults(fn=cmd_ball)

    sp = sub.add_parser("algebra-growth", help="dim V^n of the subshift algebra")
    sp.add_argument("--source", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--field", default="Q")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--oracle-upto", type=int, default=0)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_algebra_growth)

    sp = sub.add_parser("semigroup-growth", help="dimensions of the semigroup subalgebra")
    sp.add_argument("--source", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_semigroup_growth)

    sp = sub.add_parser("module-growth", help="growth of the module at a point")
    sp.add_argument("--source", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--field", default="Q")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_module_growth)

    sp = sub.add_parser("expansive", help="expansiveness atom counts")
    sp.add_argument("--source", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_expansive)

    sp = sub.add_parser("nucleus", help="nucleus of a self-similar group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cap", type=int, default=10_000)
    sp.set_defaults(fn=cmd_nucleus)

    sp = sub.add_parser("germ", help="decide germ triviality at a point")
    sp.add_argument("--group", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--point", required=True, help="'pre|period', e.g. '|1'")
    sp.set_defaults(fn=cmd_germ)

    sp = sub.add_parser("matrix-recursion", help="image of a group-ring element at a level")
    sp.add_argument("--group", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--field", default="Q")
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--print", dest="print_matrix", action="store_true")
    sp.set_defaults(fn=cmd_matrix_recursion)

    sp = sub.add_parser("thinned-growth", help="growth of the thinned algebra")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--field", default="F2")
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_thinned_growth)

    sp = sub.add_parser("verify-all", help="run the full verification suite")
    sp.add_argument("--profile", default="quick", choices=["quick", "full"])
    sp.set_defaults(fn=cmd_verify_all)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except IdentityError as e:
        print(f"identity violated: {e}", file=sys.stderr)
        return EXIT_IDENTITY
    except (ValueError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
