"""Every public name of ``trinion`` has a caller in the package or a stated reason to stay.

A name that nothing in ``src/trinion`` uses outside its own definition is a
second route to work the package does another way, unless it realizes a
statement of the paper that a test names, or the benchmark calls it.  Such
names are listed in ``KEPT`` with the test or file that keeps them.
"""

import ast
import types
from pathlib import Path

import trinion

SRC = Path(trinion.__file__).parent
TESTS = Path(__file__).parent
ROOT = TESTS.parent

KEPT = {
    "moment_maps": "test_moment_maps_trivial",
    "reality_project": "test_reality_project_idempotent_and_fixing",
    "graph_gauge": "test_fr_gauge_descent",
    "word_segments": "test_resolution_words_realize_geometrically",
    "holonomy_batch": "perfbench/workloads.py",  # the benchmark's goldman workload
}


def _public_names():
    return {name for name, val in vars(trinion).items()
            if not name.startswith("_") and not isinstance(val, types.ModuleType)}


def _used_names(path, attributes=False):
    """Names read in a file (and attributes, if asked), a top-level definition's own
    name not counted inside it."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        if attributes:
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def test_every_public_name_is_used_or_kept():
    used = set().union(*(_used_names(p) for p in SRC.glob("*.py")))
    assert _public_names() - used == set(KEPT)


def test_each_kept_name_names_its_keeper():
    tests = {node.name for p in TESTS.glob("test_*.py")
             for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.FunctionDef)}
    for name, keeper in KEPT.items():
        if keeper.startswith("test_"):
            assert keeper in tests, f"{name}: no test {keeper}"
        else:
            assert name in _used_names(ROOT / keeper, attributes=True), f"{name}: {keeper} does not use it"
