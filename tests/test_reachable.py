"""Every public name in ``src/sedpipe`` is reached by the program.

A public module-level function or class, or a public method, counts as
reached when ``src/``, ``scripts/`` or ``perfbench/`` names it outside its
own definition: as a name, an attribute, or a string equal to it (the
benchmark's tracer looks attributes up by name). Package ``__init__``
modules are skipped, since their imports only re-export. Names that only
tests reach stay only on the allowlist, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)
PACKAGE = ROOT / "src" / "sedpipe"

ALLOWED = {
    "power_spectrum": "the reference power spectrum of the acceptance gate and the feature tests",
    "build_baseline_mlp": "the acceptance gate's dense baseline (test_baseline_structure_and_learning)",
    "mbe_context_windows": "the acceptance gate's baseline input (test_baseline_structure_and_learning)",
    "load_checkpoint": "the acceptance gate's checkpoint round trip; no command reads a checkpoint yet",
}


def named(tree: ast.AST) -> Counter:
    """How often each identifier is named under ``tree``."""
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            counts[node.value] += 1
    return counts


def public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )


def unreached() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    total = sum((named(tree) for tree in trees.values()), Counter())
    found = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in public_definitions(tree):
            if total[node.name] - named(node)[node.name] == 0:
                found.append(node.name)
    return sorted(found)


def test_every_public_name_is_reached_or_allowed():
    assert unreached() == sorted(ALLOWED)
