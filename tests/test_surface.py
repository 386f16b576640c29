"""The package's surface is what its subcommands run and what it exports.

Every public top-level function or class in ``src/oscbath`` is either used
by another definition of the package or listed in ``oscbath.__all__``. A
name that only the tests reach belongs with the tests (``_reference_*.py``
or the test that uses it).
"""

import ast
from pathlib import Path

import oscbath

SRC = Path(oscbath.__file__).parent


def _referenced(node) -> set:
    """Names that ``node`` loads, reads as attributes or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unused_unexported() -> list:
    """``module.name`` of each public top-level def or class that no other
    top-level statement of the package (``__init__.py`` aside) references
    and ``__all__`` does not list."""
    public, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if named and not node.name.startswith("_"):
                public.append((path.stem, node.name, node))
            uses.append((node, _referenced(node)))
    return [f"{module}.{name}" for module, name, own in public
            if name not in oscbath.__all__
            and not any(name in names for node, names in uses if node is not own)]


def test_every_public_definition_is_used_or_exported():
    assert _unused_unexported() == []


def test_every_exported_name_exists():
    assert all(hasattr(oscbath, name) for name in oscbath.__all__)
    assert len(set(oscbath.__all__)) == len(oscbath.__all__)
