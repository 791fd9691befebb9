"""Every name a library module imports is used in that module.

No linter ships with the toolchain, so this walks each module's AST: an
imported name counts as used when it appears as a name anywhere else in the
module (a bare name or the base of an attribute access). __init__.py is
left out: its imports are the package's public names.
"""

import ast
import os

import pytest

import lipforge

SRC = os.path.dirname(lipforge.__file__)
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


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
