"""Every capacity limit is in linalg's table, and linalg.capacity alone
raises CapacityError.

A capacity check elsewhere calls ``capacity``, whose message names the size,
the limit and its value, and the command line maps its error to exit 4.
``dense_max`` hands the class to the argument contract, which constructs no
CapacityError in the source either.
"""

import ast
from pathlib import Path

from aeqslab import linalg

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aeqslab"
LIMITS = ("DENSE_MAX_DEFAULT", "EVOLVE_DIM_MAX", "GARBAGE_CAPACITY", "VERIFY_INPUTS_MAX")


def _construction_sites(path: Path) -> list:
    """(module, innermost enclosing function, line) of every CapacityError
    constructed or raised in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    sites = []
    for node in ast.walk(tree):
        made = (node.func if isinstance(node, ast.Call)
                else node.exc if isinstance(node, ast.Raise) else None)
        if getattr(made, "id", getattr(made, "attr", None)) == "CapacityError":
            inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(inside, key=lambda f: f.lineno).name if inside else None
            sites.append((path.name, owner, node.lineno))
    return sites


def test_only_capacity_constructs_capacity_error():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) for site in _construction_sites(path)]
    assert [(module, owner) for module, owner, _ in sites] == [("linalg.py", "capacity")], sites


def test_limits_are_defined_in_linalg_alone():
    for limit in LIMITS:
        assert isinstance(getattr(linalg, limit), int)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not assigned & set(LIMITS), path.name
