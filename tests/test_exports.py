import ast
from pathlib import Path

import tablerank


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from tablerank import *", namespace)  # raises if a name in __all__ is gone
    missing = [name for name in tablerank.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tablerank.__all__)) == len(tablerank.__all__)


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_exported_name_is_used_inside_the_package():
    # A public name that only tests call is dead weight: each one must be
    # referenced by some other top-level statement of a package module.
    used: set[str] = set()
    for path in Path(tablerank.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            # a def or class does not count as using itself
            used |= referenced_names(stmt) - {getattr(stmt, "name", None)}
    unused = [name for name in tablerank.__all__ if name != "__version__" and name not in used]
    assert unused == []
