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


def test_replay_searches_region_paths_in_one_function():
    """Every replay step that lists a region's Hamiltonian paths goes
    through one function, so ``enumerate_ham_paths`` is named inside one
    function of ``replay.py`` only."""
    path = Path(hamforge.__file__).parent / "replay.py"
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if "enumerate_ham_paths" in (getattr(child, "id", None),
                                         getattr(child, "attr", None)):
                callers.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    assert len(callers) == 1 and None not in callers, sorted(map(str, callers))
