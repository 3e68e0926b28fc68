"""Every ``ScenarioSpec`` and ``ChannelConfig`` field is read somewhere in ``src/laco``.

A field that nothing reads is a scenario key that parses and changes nothing.
This ``ast`` walk counts two kinds of read: an attribute load anywhere in the
package (``spec.m``; a store such as ``self.m = 0`` is not a read), and a
string in a dict literal, the key maps such as ``scenario._MODEL_KEYS`` that
name fields for ``getattr``.  It goes by name only, so a field shares a read
with any attribute of that name.
"""

import ast
from dataclasses import fields
from pathlib import Path

from laco.scenario import ScenarioSpec
from laco.wire import ChannelConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "laco"

# ``seed`` is parsed and sets nothing: the benchmark's layout generator still
# writes it.  It goes with the benchmark half of ROADMAP item 12.
UNREAD_ALLOWED = {"seed"}


def reads(source: str) -> set:
    """The attribute names a module loads and the strings in its dict literals."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Dict):
            names |= {c.value for c in (*node.keys, *node.values)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def unread(names, sources) -> set:
    return set(names) - set().union(*map(reads, sources))


def test_every_spec_and_channel_field_is_read():
    names = [f.name for cls in (ScenarioSpec, ChannelConfig) for f in fields(cls)]
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    # Equality, not a subset: an allowed name that gains a read must leave the list.
    assert unread(names, sources) == UNREAD_ALLOWED


def test_a_field_only_stored_or_named_in_a_docstring_is_found():
    source = "\n".join([
        "KEYS = {'rho': 'l_comm_fraction'}",
        "def f(spec):",
        "    '''Reads ``spec.m``.'''",
        "    spec.tick_budget = 1",
        "    return spec.name, getattr(spec, KEYS['rho'])",
    ])
    assert unread(["name", "m", "rho", "l_comm_fraction", "tick_budget"], [source]) == {"m", "tick_budget"}
