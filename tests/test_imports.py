"""Checks over each library module's AST.

Every name a module imports is used in that module.  No linter ships with
the toolchain, so this walks each module's AST: an imported name counts as
used when it appears as a name anywhere else in the module (a bare name or
the base of an attribute access). __init__.py is left out: its imports are
the package's public names.  Importing the CLI, or bracketing the norm of
an operator between lp spaces, loads neither scipy.optimize nor
scipy.spatial: only polyhedral norms need scipy.spatial, and import it.

The library holds at most SETTABLE_DEFAULTS settable defaults: keyword
defaults of functions and lambdas plus dataclass fields with a default,
not counting field(init=False).  A tuning number with one value in use is
a constant, not a keyword; the bound falls as such keywords go.

A construction returns plain nodes: the only attributes the library stores
on an object other than self or cls are the pu map's diagnostics, listed
in PATCHED_ATTRIBUTES.

The benchmark's traced run counts work in library functions it finds by
qualified name (the keys of HOOKS in bench/tracing.py); each must name a
function or method under lipforge, so a rename fails here rather than
leaving a traced count silently at zero.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import lipforge

SRC = os.path.dirname(lipforge.__file__)
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")
SETTABLE_DEFAULTS = 60
PATCHED_ATTRIBUTES = [
    ("steep.py", "build_pu_map", "g.cyl_value"),
    ("steep.py", "build_pu_map", "g.gap"),
    ("steep.py", "build_pu_map", "g.parts"),
]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_name():
    src = "import os\nfrom numpy import (array, zeros)\nx = zeros(2)\n"
    assert _unused_imports(src) == [(1, "os"), (2, "array")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert _unused_imports(fh.read()) == []


def _settable_defaults(source):
    """(line, owner, name) of each settable default in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            owner = getattr(node, "name", "<lambda>")
            pos = a.posonlyargs + a.args
            out += [(node.lineno, owner, arg.arg)
                    for arg in pos[len(pos) - len(a.defaults):]]
            out += [(node.lineno, owner, arg.arg)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for st in node.body:
                if not (isinstance(st, ast.AnnAssign) and st.value is not None):
                    continue
                v = st.value
                if (isinstance(v, ast.Call) and ast.unparse(v.func) == "field"
                        and any(k.arg == "init" and ast.unparse(k.value) == "False"
                                for k in v.keywords)):
                    continue
                out.append((st.lineno, node.name, st.target.id))
    return out


def test_counter_sees_keywords_and_dataclass_fields():
    src = ("from dataclasses import dataclass, field\n"
           "def f(a, b=1, *, c=2, d): pass\n"
           "g = lambda x=0: x\n"
           "@dataclass\n"
           "class S:\n"
           "    a: int\n"
           "    b: int = 3\n"
           "    c: list = field(default_factory=list)\n"
           "    d: int = field(init=False)\n")
    assert sorted((owner, name) for _, owner, name in _settable_defaults(src)) == [
        ("<lambda>", "x"), ("S", "b"), ("S", "c"), ("f", "b"), ("f", "c")]


def test_settable_default_count():
    found = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            found += [(module,) + d for d in _settable_defaults(fh.read())]
    listing = "\n".join("%s:%d %s %s" % d for d in sorted(found))
    assert len(found) <= SETTABLE_DEFAULTS, listing


def _attribute_stores(source):
    """(line, function, target) of each store to an attribute of an object
    other than self or cls; function is the innermost enclosing def."""
    out = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            out.append((node.lineno, owner, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


def test_store_walker_skips_self_and_cls():
    src = ("x.a = 1\n"
           "def f(g, self):\n"
           "    self.b = g.c = 2\n"
           "    def h(cls):\n"
           "        cls.d, g.e = 3, 4\n"
           "    g.f += 1\n")
    assert _attribute_stores(src) == [(1, "<module>", "x.a"), (3, "f", "g.c"),
                                      (5, "h", "g.e"), (6, "f", "g.f")]


def test_patched_attributes():
    found = []
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            found += [(module,) + s for s in _attribute_stores(fh.read())]
    listing = "\n".join("%s:%d %s %s" % s for s in sorted(found))
    assert sorted((m, owner, t) for m, _, owner, t in found) == PATCHED_ATTRIBUTES, \
        listing


def test_cli_import_leaves_scipy_optimize_and_spatial_unloaded():
    # l3 -> l2 takes the power ascent, l2 -> linf the dual ball's vertices
    code = ("import sys, numpy as np, lipforge.cli\n"
            "from lipforge.spaces import LinOp, lp_space\n"
            "T = np.array([[1.0, 2.0], [3.0, -4.0]])\n"
            "LinOp.build(T, lp_space(2, 3), lp_space(2, 2))\n"
            "LinOp.build(T, lp_space(2, 2), lp_space(2, 'inf'))\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.spatial'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_bench_trace_hooks_resolve():
    # the tracer wraps a module's own functions and a class's own methods,
    # so each name must resolve through vars(), not through inheritance
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    hooks = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "HOOKS" for t in node.targets)]
    assert len(hooks) == 1
    names = [ast.literal_eval(key) for key in hooks[0].keys]
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module("lipforge." + module)
        for attr in attrs:
            assert attr in vars(obj), name
            obj = vars(obj)[attr]
        assert obj.__module__ == "lipforge." + module and callable(obj), name
