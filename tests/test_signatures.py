"""Conventions of the library's signatures, read off its source with ``ast``."""

import ast
from pathlib import Path

import hamforge

SOURCES = sorted(Path(hamforge.__file__).parent.glob("*.py"))


def _parameters(tree):
    """(function name, line, parameter) for every parameter in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
                yield getattr(node, "name", "<lambda>"), node.lineno, arg


def test_every_exclude_parameter_is_an_int_bitmask():
    """A parameter named ``exclude`` has one meaning across the library:
    the bitmask of the vertex ids a search or a restriction leaves out, so
    each is annotated ``int`` (an id collection would need a conversion at
    every boundary it crosses)."""
    found, wrong = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for name, line, arg in _parameters(tree):
            if arg.arg != "exclude":
                continue
            found.append(name)
            ann = arg.annotation
            if not (isinstance(ann, ast.Name) and ann.id == "int"):
                wrong.append(f"{path.name}:{line} {name}")
    assert len(found) >= 15 and not wrong, wrong
