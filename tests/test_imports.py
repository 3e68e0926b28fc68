"""Every ``src/laco`` module reads each name it imports.

No lint tool is part of the test environment, so this ``ast`` walk stands in
for the unused-import check: a name bound by an import and never read in the
module's code fails (a mention in a docstring or comment does not count).
``laco/__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "laco"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``"name (line n)"`` for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_name_imported_for_a_docstring_only_is_found():
    source = "\n".join([
        "import numpy as np",
        "import os.path",
        "from .model import KVCache, Model",
        "def f(m: Model):",
        "    '''Takes a :class:`KVCache`.'''",
        "    return np.zeros(os.sep)",
    ])
    assert unused_imports(source) == ["KVCache (line 3)"]
