"""Every public name and every option in ``src/sedpipe`` is reached by the
program.

A public module-level function or class, or a public method, counts as
reached when ``src/``, ``scripts/`` or ``perfbench/`` names it outside its
own definition: as a name, an attribute, or a string equal to it (the
benchmark's tracer looks attributes up by name). Package ``__init__``
modules are skipped, since their imports only re-export. Names that only
tests reach stay only on the allowlist, each with its reason.

A defaulted parameter of a public function, method or constructor counts
as set when some call in the same sources passes it, by position or by
keyword. Calls match by callee name (the class name for ``__init__``), and
a call with ``*args`` or ``**kwargs`` counts as passing everything. Options
that no call sets stay only on their own allowlist, each with its reason.
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

_BASELINE = "the acceptance gate's dense baseline sets it (test_baseline_structure_and_learning)"
ALLOWED_OPTIONS = {
    "build_baseline_mlp.n_mels": _BASELINE,
    "build_baseline_mlp.context": _BASELINE,
    "build_baseline_mlp.hidden": _BASELINE,
    "build_baseline_mlp.dropout_rate": _BASELINE,
    "build_baseline_mlp.rng": _BASELINE,
    "mbe_context_windows.context": _BASELINE,
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


def defaulted_parameters(tree: ast.Module):
    """``(callee, parameter, position)`` for each defaulted parameter of a
    public function, public method or public class's ``__init__``;
    ``position`` counts the arguments a call passes, without ``self``, and
    is None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaults(node, node.name, bound=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    yield from _defaults(item, node.name if item.name == "__init__" else item.name, bound=not static)


def _defaults(fn: ast.FunctionDef, callee: str, bound: bool):
    args = fn.args
    positional = (args.posonlyargs + args.args)[int(bound):]
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], start=first):
        yield callee, arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (position is not None and len(call.args) > position) or any(k.arg == parameter for k in call.keywords)


def unset_options() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return sorted(
        f"{callee}.{parameter}"
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for callee, parameter, position in defaulted_parameters(tree)
        if not any(passes(call, parameter, position) for call in calls.get(callee, ()))
    )


def test_every_option_is_set_or_allowed():
    assert unset_options() == sorted(ALLOWED_OPTIONS)
