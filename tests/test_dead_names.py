"""Every name defined in the package is read somewhere.

A function, class, method, module-level constant or dataclass field of
``src/aeqslab`` must appear as a whole word on at least one line of
``src/``, ``tests/`` or ``perfbench/`` that does not define that name.
Plain text counts, because the benchmark patches the package by attribute
name.  Dunder names are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aeqslab"
SCANNED = ("src", "tests", "perfbench")
WORD = re.compile(r"\w+")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions(tree: ast.Module):
    """(name, line) of every checked definition in one module."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item.lineno


def test_every_defined_name_is_read():
    defined = {}                       # name -> {(path, line) defining it}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, set()).add((path, line))

    lines_with = Counter()             # word -> number of scanned lines holding it
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line in path.read_text(encoding="utf-8").splitlines():
                lines_with.update(set(WORD.findall(line)))

    unread = sorted(
        f"{name} ({path.relative_to(ROOT)}:{line})"
        for name, sites in defined.items()
        if lines_with[name] <= len(sites)
        for path, line in sorted(sites)
    )
    assert not unread, "defined but never read: " + ", ".join(unread)
