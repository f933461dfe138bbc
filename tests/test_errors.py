"""Every exception class in gridcast.errors is raised or caught somewhere,
and gridcast raises no class that errors.py does not define.

A class that nothing raises and nothing catches is a concept with no
behaviour; this keeps the families from growing back one class at a time.
"""
import ast
import inspect
from pathlib import Path

import gridcast
from gridcast import errors

SRC = Path(gridcast.__file__).parent


def _names(expr) -> set[str]:
    """Classes a raise or except clause names: X, X(...), (X, Y), mod.X."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    return {e.id if isinstance(e, ast.Name) else e.attr
            for e in (expr.elts if isinstance(expr, ast.Tuple) else [expr])
            if isinstance(e, (ast.Name, ast.Attribute))}


def test_every_exception_class_is_raised_or_caught():
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__} - {"GridcastError"}
    used = set()
    for path in SRC.rglob("*.py"):
        if path.name == "errors.py" and path.parent == SRC:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    assert defined and sorted(defined - used) == []


def _raised_outside_errors(module: str) -> list[str]:
    """Classes a module raises that errors.py does not define."""
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__}
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised |= _names(node.exc)
    assert raised
    return sorted(raised - defined)


def test_ingest_raises_only_classes_from_errors():
    # A ValueError is no GridcastError, so the CLI would print its
    # traceback instead of one labelled line.
    assert _raised_outside_errors("ingest.py") == []


def test_types_raises_only_classes_from_errors():
    assert _raised_outside_errors("types.py") == []


def test_every_module_raises_only_classes_from_errors():
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__}
    outside = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for name in _names(node.exc) - defined:
                    outside.setdefault(str(path.relative_to(SRC)), []).append(
                        f"{name} at line {node.lineno}")
    assert outside == {}
