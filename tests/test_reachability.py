"""Every function, class and method in `src/cbgraph` is used by `src/`.

A top-level function or class, or a method, must be named somewhere in
the package outside its own definition (as a name or an attribute), or
be listed in `ENTRY_POINTS` with the reason it stays.  Dunder methods
are called by the interpreter and are exempt.  The test also keeps the
crossing readers that the half arrays replaced from coming back.
"""

import ast
from pathlib import Path

import cbgraph

SRC = Path(cbgraph.__file__).parent

# Names kept although nothing in `src/` calls them, with the reason.
ENTRY_POINTS = {
    "main": "the `cbgraph` console script",
    "trace_components": "bound by name in `perfbench/spans.py`",
    "vertex_canonical": "bound by name in `perfbench/spans.py`",
    "raw_count": "`perfbench/workloads.py` reads `Drawing.raw_count`",
    "algebraic": "`perfbench/workloads.py` reads `Drawing.algebraic`",
    "mn_scan_has_large_solution": "bound by name in `perfbench/spans.py`",
    "is_handlebody": "`CBType` API for the paper's top vertices; kept beside `height`",
    "is_comparability": "the comparability test ROADMAP item 19's cb route may use",
}
GONE = ("strand_data", "strand_sequence")


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def test_every_definition_is_reached():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append(node)
    unreached = []
    for name, tree in trees.items():
        for d in _definitions(tree):
            if d.name.startswith("__") or d.name in ENTRY_POINTS:
                continue
            inside = {id(n) for n in ast.walk(d)}
            if not [n for n in used.get(d.name, ()) if id(n) not in inside]:
                unreached.append(f"{name}:{d.lineno} {d.name}")
    assert not unreached, unreached


def test_replaced_crossing_readers_stay_gone():
    for p in sorted(SRC.glob("*.py")):
        assert not [n for n in GONE if n in p.read_text()], p.name
