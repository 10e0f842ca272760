"""The command line parses, calls the package and prints; it builds nothing.

A machine document becomes a family through ``MachineSpecDocument.family``,
and a gallery entry through ``gallery.build``, so ``cli.py`` imports none of
the constructions behind them and constructs no ``GalleryEntry``.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "aeqslab" / "cli.py"
CONSTRUCTIONS = {"from_moqfa", "from_garbage_1qfa", "generate_moqqaf", "validate_level",
                 "aeqs_instance", "deflation_hamiltonian", "criteria_arrays"}


def _names(node) -> set:
    """The names one node imports or reads."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_cli_uses_no_construction():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    used = {(name, node.lineno) for node in ast.walk(tree) for name in _names(node)}
    assert sorted(site for site in used if site[0] in CONSTRUCTIONS) == []


def test_cli_constructs_no_gallery_entry():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "GalleryEntry" in _names(node.func)]
    assert calls == []
