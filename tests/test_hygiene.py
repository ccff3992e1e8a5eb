"""Source hygiene checks that need no linter."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from groupoid_growth import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupoid_growth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n") == [
        "dumps",
        "os",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Root packages named by the top-level imports of ``source`` that are
    neither relative nor in the standard library."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return sorted({name.split(".")[0] for name in found} - set(sys.stdlib_module_names))


def test_detects_a_foreign_import():
    source = "import os.path\nimport numpy as np\nfrom .fields import QQ\nfrom yaml import load\n"
    assert foreign_imports(source) == ["numpy", "yaml"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_stdlib_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions_and_uses(sources: dict[str, str]):
    """(label, name, top level?) of every top-level function, class and
    constant and every method in ``sources``, and the set of names they
    reference: a load of the name, an attribute of that name or an import
    of it.  References are matched by name, not by scope."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}:{node.name}", node.name, True))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{module}:{t.id}", t.id, True) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.append((f"{module}:{node.name}.{item.name}", item.name, False))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
    return defined, used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants, and private
    methods, that no module of ``sources`` references besides defining them."""
    defined, used = _definitions_and_uses(sources)
    return sorted(label for label, name, _ in defined if _is_private(name) and name not in used)


# Public methods that no package module calls, kept on purpose.
KEPT_PUBLIC_METHODS = {
    "act": "SelfSimilarGroup.act is the tests' reference for products",
    "factors": "bench/tracer.py reads Language.factors",
    "restriction": "bench/tracer.py wraps SelfSimilarGroup.restriction and its pass test allows no absent target",
}


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level functions, classes and constants that the package's
    ``__init__`` does not export, and public methods other than those in
    ``KEPT_PUBLIC_METHODS``, that no module of ``sources`` references
    besides defining them.

    A reference is matched by name, not by scope or class, so a method
    counts as used when any attribute of that name is loaded: a used
    method masks an unused one of the same name elsewhere (the unused
    ``WordSource.letter`` went unflagged while ``germ_is_unit`` called
    ``EventuallyPeriodicPoint.letter``).
    """
    defined, used = _definitions_and_uses(sources)
    return sorted(
        label
        for label, name, top in defined
        if not name.startswith("_") and name not in used and (top or name not in KEPT_PUBLIC_METHODS)
    )


def test_detects_dead_private_code():
    sources = {
        "a": (
            "_LIMIT = 3\n_USED = 4\n__all__ = []\n"
            "def _dead(): pass\n"
            "def _alive(): return _USED\n"
            "class _Gone:\n    pass\n"
            "class Box:\n"
            "    def __init__(self): self._helper()\n"
            "    def _helper(self): pass\n"
            "    def _unused(self): pass\n"
            "    def public(self): return _alive()\n"
        ),
        "b": "from .a import _Imported\n",
        "c": "class _Imported: pass\n",
    }
    assert dead_private_names(sources) == ["a:Box._unused", "a:_Gone", "a:_LIMIT", "a:_dead"]


def test_no_dead_private_code():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_detects_unreferenced_public_code():
    sources = {
        "__init__": "from .a import exported\n__version__ = '0'\n",
        "a": (
            "LIMIT = 3\nUSED = 4\n"
            "def exported(): pass\n"
            "def helper(): return USED\n"
            "def orphan(): return helper()\n"
            "class Orphan:\n    def unused_method(self): pass\n"
            "def used_elsewhere(): pass\n"
            "class Kept:\n"
            "    def act(self): pass\n"
            "    def called(self): pass\n"
            "    def __len__(self): return 0\n"
            "    @property\n"
            "    def size(self): return 0\n"
        ),
        "b": "from . import a\ndef _f(k): return a.used_elsewhere(), k.called(), k.size\n",
    }
    assert unreferenced_public_names(sources) == ["a:Kept", "a:LIMIT", "a:Orphan", "a:Orphan.unused_method", "a:orphan"]


def test_no_unreferenced_public_code():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_public_names(sources) == []
    # Each kept method is still defined and still has no caller.
    defined, used = _definitions_and_uses(sources)
    assert KEPT_PUBLIC_METHODS.keys() <= {name for _, name, top in defined if not top}
    assert not KEPT_PUBLIC_METHODS.keys() & used


# What shift_algebra's oracle must not read: growth_dims and the
# evaluation space and generator action it is built on.  Check 05 compares
# the two, so an oracle that shared them could not catch their faults.
ORACLE_FORBIDDEN = {
    "growth_dims",
    "WindowSpace",
    "_BlockRank",
    "apply_generator",
    "generator_monomials",
    "unit_monomial",
    "Monomial",
    "_tested_positions",
}


def names_referenced_by(source: str, function: str) -> set[str]:
    """Names that the top-level function ``function`` of ``source`` loads,
    as a name or as an attribute."""
    (node,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_detects_an_oracle_dependency():
    source = (
        "def growth_dims(lang): pass\n"
        "def bruteforce_dims(lang, n):\n"
        "    space = WindowSpace(lang, n)\n"
        "    masks = space.letter_mask\n"
        "    return shift_algebra.apply_generator(space, masks)\n"
    )
    assert names_referenced_by(source, "bruteforce_dims") & ORACLE_FORBIDDEN == {"WindowSpace", "apply_generator"}


def test_oracle_is_independent_of_growth_dims():
    source = (PACKAGE / "shift_algebra.py").read_text(encoding="utf-8")
    assert names_referenced_by(source, "bruteforce_dims") & ORACLE_FORBIDDEN == set()


# Defaulted parameters that no package call passes, kept on purpose.
KEPT_UNSET_PARAMETERS = {
    "cli:main(argv)": "the tests and the benchmark pass main an argument list",
}


def _parameter_calls(sources: dict[str, str]) -> list:
    """(label, defaulted parameters, parameters some call passes, parameters
    some call may omit, number of calls) of each top-level function and
    method of ``sources`` with a defaulted parameter.

    Calls are matched by name, not by scope or class, as in
    :func:`unreferenced_public_names`: ``f(...)`` and ``x.f(...)`` call
    every function and method named ``f``, and ``C(...)`` calls
    ``C.__init__``.  A method's first parameter is bound, so a call's first
    argument is its second.  A call with ``*args`` or ``**kwargs`` may pass
    every parameter and may omit every one.
    """
    # called name -> [(label, positional parameters, defaulted parameters, passed, omitted, [calls])]
    defs: dict[str, list] = {}
    trees = [ast.parse(source) for source in sources.values()]
    for module, tree in zip(sources, trees):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                found = [
                    (node.name if item.name == "__init__" else item.name, f"{node.name}.{item.name}", item, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            else:
                continue
            for called, label, fn, method in found:
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if defaulted:
                    if method:
                        positional = positional[1:]
                    defs.setdefault(called, []).append((f"{module}:{label}", positional, defaulted, set(), set(), [0]))
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            for _, positional, defaulted, passed, omitted, calls in defs.get(name, ()):
                calls[0] += 1
                if spread:
                    passed.update(defaulted)
                    omitted.update(defaulted)
                else:
                    given = set(positional[: len(call.args)]) | {k.arg for k in call.keywords}
                    passed.update(given)
                    omitted.update(p for p in defaulted if p not in given)
    return [
        (label, defaulted, passed, omitted, calls[0])
        for entries in defs.values()
        for label, _, defaulted, passed, omitted, calls in entries
    ]


def unset_parameters(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters that no call in ``sources`` passes, by keyword
    or by position, as ``module:function(parameter)``."""
    return sorted(
        f"{label}({param})"
        for label, defaulted, passed, _, _ in _parameter_calls(sources)
        for param in defaulted
        if param not in passed
    )


def always_set_parameters(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of a function that ``sources`` call, and that
    every such call passes, as ``module:function(parameter)``: a default
    that only callers outside ``sources`` can rely on."""
    return sorted(
        f"{label}({param})"
        for label, defaulted, _, omitted, calls in _parameter_calls(sources)
        for param in defaulted
        if calls and param not in omitted
    )


def test_detects_unset_parameters():
    sources = {
        "a": (
            "def f(x, by_position=1, by_keyword=2, unset=3, *, only_keyword=4, unset_keyword=5): pass\n"
            "def spread_args(x=1, y=2): pass\n"
            "def spread_kwargs(*, x=1): pass\n"
            "def never_called(x=1): pass\n"
            "def plain(x): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1, unset=2): pass\n"
            "    def put(self, item=None, unset=0): pass\n"
            "    @classmethod\n"
            "    def make(cls, n=0): pass\n"
        ),
        "b": (
            "from .a import Box, f, spread_args, spread_kwargs\n"
            "def g(opts, xs):\n"
            "    f(0, 1, by_keyword=2, only_keyword=3)\n"
            "    spread_args(*xs)\n"
            "    spread_kwargs(**opts)\n"
            "    box = Box(3)\n"
            "    box.put(None)\n"
            "    Box.make(1)\n"
        ),
    }
    assert unset_parameters(sources) == [
        "a:Box.__init__(unset)",
        "a:Box.put(unset)",
        "a:f(unset)",
        "a:f(unset_keyword)",
        "a:never_called(x)",
    ]


def test_no_unset_parameters():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    # Each kept parameter is still defined and still unset.
    assert unset_parameters(sources) == sorted(KEPT_UNSET_PARAMETERS)


# Defaulted parameters that every package call passes, kept on purpose.
KEPT_ALWAYS_SET_PARAMETERS: dict[str, str] = {}


def test_detects_always_set_parameters():
    sources = {
        "a": (
            "def f(x, by_position=1, by_keyword=2, sometimes=3, *, only_keyword=4): pass\n"
            "def spread_args(x=1): pass\n"
            "def spread_kwargs(*, x=1): pass\n"
            "def never_called(x=1): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1, unset=2): pass\n"
            "    @classmethod\n"
            "    def make(cls, n=0): pass\n"
        ),
        "b": (
            "from .a import Box, f, spread_args, spread_kwargs\n"
            "def g(opts, xs):\n"
            "    f(0, 1, by_keyword=2, sometimes=3, only_keyword=3)\n"
            "    f(0, 1, by_keyword=2, only_keyword=3)\n"
            "    spread_args(*xs)\n"
            "    spread_kwargs(**opts)\n"
            "    Box(3)\n"
            "    Box.make(n=1)\n"
        ),
    }
    assert always_set_parameters(sources) == [
        "a:Box.__init__(size)",
        "a:Box.make(n)",
        "a:f(by_keyword)",
        "a:f(by_position)",
        "a:f(only_keyword)",
    ]


def test_no_always_set_parameters():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    # Each kept parameter is still defined and still always set.
    assert always_set_parameters(sources) == sorted(KEPT_ALWAYS_SET_PARAMETERS)


def test_cli_import_generates_no_code():
    # Value types are written out: a fresh interpreter that imports the CLI
    # loads no dataclasses, which would build their methods with exec.
    probe = "import sys, groupoid_growth.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def defined_exceptions(modules) -> list[str]:
    """``module:class`` of each exception class that a module of ``modules``
    defines, rather than imports."""
    return sorted(
        f"{module.__name__}:{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    )


def test_detects_a_defined_exception():
    # An imported exception and a class that is no exception are not flagged.
    module = types.ModuleType("caps")
    exec(
        "from concurrent.futures import BrokenExecutor\n"
        "class Plain: pass\n"
        "class Cap(RuntimeError): pass\n"
        "class Derived(Cap): pass\n"
        "class Usage(ValueError): pass\n",
        vars(module),
    )
    assert defined_exceptions([module]) == ["caps:Cap", "caps:Derived", "caps:Usage"]


def test_one_exception_class_per_exit_code():
    # cli.main maps ResourceError to exit 3, IdentityError to 4 and
    # ValueError to 2; no other module defines an exception class.
    modules = [importlib.import_module(f"groupoid_growth.{p.stem}") for p in MODULES]
    assert defined_exceptions(modules) == [
        "groupoid_growth.errors:IdentityError",
        "groupoid_growth.errors:ResourceError",
    ]
    assert errors.ResourceError.__bases__ == (RuntimeError,)
    assert errors.IdentityError.__bases__ == (AssertionError,)
