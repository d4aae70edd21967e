"""Every name the package exports is used by the package or its benchmark.

The modules of ``src/shadowlab`` (without ``__init__.py``, which only
re-exports) and the benchmark scripts under ``perfbench/`` are scanned as
syntax trees. A name counts as used when it is read, or read as an
attribute, by code that is itself used: module-level code, the benchmark, or
a top-level function or class whose own name is used. Tests do not count:
a check that only tests call belongs with the tests.

The benchmark runs from its own directory against ``src/``, so every name
it reads from the package must also exist: a rename there would otherwise
show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
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


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, dotted name) pairs that perfbench reads from shadowlab: each
    name its scripts import from a shadowlab module, each attribute they read
    off such a name (``PseudoOrbit.from_points``), ``cli.main``, which run.py
    calls after importing the module by name, ``Word.symbols``, which spans.py
    wraps, and each (module, function) of spans.py's TRACED."""
    reads = {("cli", "main"), ("dynamics", "Word.symbols")}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shadowlab."):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.module.removeprefix("shadowlab.")
                    reads.add((imported[alias.asname or alias.name], alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                reads.add((imported[node.value.id], f"{node.value.id}.{node.attr}"))
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return reads | {(module, attr) for module, attr, *_ in spans.TRACED}


def resolves(module: str, name: str) -> bool:
    obj = importlib.import_module(f"shadowlab.{module}")
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


# Names spans.py still traces but src/ deleted long ago (orbit_shifted went when
# surgery began to call orbit on a shifted word); the tracer skips a name that
# does not exist. perfbench changes only with the benchmark, so the entry stays
# listed here until then, and no other name may go missing.
STALE_TRACED = ["shadowlab.dynamics.orbit_shifted"]


def test_every_name_the_benchmark_reads_exists():
    reads = perfbench_reads()
    assert {("pseudo_orbits", "PseudoOrbit.from_points"),
            ("pseudo_orbits", "recompute_step_errors"), ("surgery", "repair")} <= reads
    assert sorted(f"shadowlab.{m}.{n}" for m, n in reads if not resolves(m, n)) == STALE_TRACED
