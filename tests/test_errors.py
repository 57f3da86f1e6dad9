"""Every class in slet.errors is in use, so none lingers as dead code."""

import ast
import inspect
from pathlib import Path

import slet
from slet import errors


def _name(node):
    """The bare name of a Name or an Attribute node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_or_warned():
    """Names that src/slet raises, or passes to warnings.warn."""
    names = set()
    for path in Path(slet.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                names.add(_name(exc.func if isinstance(exc, ast.Call)
                                else exc))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"
                  and _name(node.func.value) == "warnings"):
                names.update(_name(arg) for arg in node.args[1:])
                names.update(_name(kw.value) for kw in node.keywords
                             if kw.arg == "category")
    return names


def test_every_error_class_is_used():
    classes = {name: cls for name, cls in inspect.getmembers(
        errors, inspect.isclass) if cls.__module__ == errors.__name__}
    used = set()
    for name in raised_or_warned() & set(classes):
        used.update(base.__name__ for base in classes[name].__mro__
                    if base.__name__ in classes)
    assert set(classes) - used == set()
