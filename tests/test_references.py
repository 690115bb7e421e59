"""Every function, class and method of the package has a caller.

A top-level function or class, or a method, of ``src/germtower`` counts as
called when its name is read somewhere in ``src/`` outside its own
definition, is imported or read by ``tests/test_acceptance.py``, or is a
target of ``perfbench/tracer.py``.  Names match by spelling alone, so a
method shares the references of every attribute with its name.  Dunder
methods are called by the interpreter and are not checked.  Imports inside
``src/`` only re-export a name and do not count.  The files are parsed,
never imported.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germtower"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, DEFINITIONS))


def tracer_targets() -> set:
    # FUNCTIONS rows end in the function; METHODS rows hold the class and
    # the method at positions 2 and 3.
    columns = {"FUNCTIONS": (2,), "METHODS": (2, 3)}
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in columns:
            for row in ast.literal_eval(node.value):
                targets.update(row[i] for i in columns[node.targets[0].id])
    return targets


def acceptance_names() -> set:
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return imported | set(read_names(tree))


def uncalled() -> list[str]:
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    src_reads = sum((read_names(tree) for tree in modules.values()), Counter())
    outside = acceptance_names() | tracer_targets()
    out = []
    for filename, tree in modules.items():
        for node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in outside:
                continue
            if src_reads[name] - read_names(node)[name] <= 0:
                out.append(f"{filename}:{node.lineno} {name}")
    return out


def test_every_definition_has_a_caller():
    assert tracer_targets() and acceptance_names()
    assert uncalled() == []
