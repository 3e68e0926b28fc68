"""Every module-level function and class in ``src/laco`` is read somewhere in ``src/laco``.

A definition that nothing in the package refers to is code that only tests or
tools reach.  This ``ast`` walk counts a name load (``attend_single(...)``), an
attribute load (``kernels.attend_single``) and a name that ``laco/__init__.py``
imports, since those are the package's public names.  It goes by name only, so
a definition shares a read with any attribute or variable of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "laco"

# ``trace_record_to_trace`` is read only by perfbench's tracer; it goes with the
# benchmark change of ROADMAP item 3.
UNREAD_ALLOWED = {"telemetry.trace_record_to_trace"}


def definitions(module: str, source: str) -> set:
    """``"module.name"`` of each function and class defined at the module's top level."""
    return {f"{module}.{node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def reads(source: str, exports: bool) -> set:
    """The names a module loads, and with ``exports`` also the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif exports and isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unread(sources: dict) -> set:
    """``sources`` maps a module name to its text; ``__init__`` is the package's exports."""
    defined = set().union(*(definitions(m, s) for m, s in sources.items()))
    read = set().union(*(reads(s, m == "__init__") for m, s in sources.items()))
    return {d for d in defined if d.partition(".")[2] not in read}


def test_every_definition_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    # Equality, not a subset: an allowed name that gains a read must leave the list.
    assert unread(sources) == UNREAD_ALLOWED


def test_a_helper_named_only_in_a_docstring_is_found():
    sources = {
        "__init__": "from .a import exported",
        "a": "\n".join([
            "def exported(): return helper()",
            "def helper(): pass",
            "def unused():",
            "    '''Not :func:`exported`'s helper.'''",
            "    x = 1",
            "class Record: pass",
        ]),
        "b": "from .a import Record\nRecord.unused_attr = 0",
    }
    assert unread(sources) == {"a.unused"}
