"""Every name the package exports is used by the package or its benchmark.

The modules of ``src/shadowlab`` (without ``__init__.py``, which only
re-exports) and the benchmark scripts under ``perfbench/`` are scanned as
syntax trees. A name counts as used when it is read, or read as an
attribute, by code that is itself used: module-level code, the benchmark, or
a top-level function or class whose own name is used. Tests do not count:
a check that only tests call belongs with the tests.
"""

import ast
from pathlib import Path

import shadowlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "shadowlab").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def references() -> dict[str | None, set[str]]:
    """Names read by each top-level function or class of src/shadowlab, keyed by
    its name; module-level code and all of perfbench under None."""
    refs: dict[str | None, set[str]] = {None: set()}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        in_package = path.parent.name == "shadowlab"
        for node in tree.body:
            owned = in_package and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            names = refs.setdefault(node.name if owned else None, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return refs


def unused_exports() -> list[str]:
    """The exported names read by no used code, found by dropping unused
    definitions until none is left."""
    refs = references()
    unused: set[str] = set()
    while True:
        used = set().union(*(names - {owner} for owner, names in refs.items()
                             if owner not in unused))
        dead = {owner for owner in refs if owner is not None and owner not in used}
        if dead <= unused:
            return sorted(set(shadowlab.__all__) - used)
        unused |= dead


def test_every_export_is_used_outside_the_tests():
    assert unused_exports() == []
