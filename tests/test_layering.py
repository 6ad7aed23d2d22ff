"""Imports of `cbgraph` run one way, at module top.

No module imports inside a function, and `ops`, which the cutting and
compression-body layers build on, imports none of `cut`, `cb` or
`projections`.
"""

import ast
from pathlib import Path

import cbgraph

SRC = Path(cbgraph.__file__).parent
ABOVE_OPS = {"cut", "cb", "projections"}


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{x.lineno} in {node.name}"
                    for x in ast.walk(node)
                    if isinstance(x, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def test_ops_imports_nothing_above_it():
    found = set()
    for node in ast.walk(_tree("ops.py")):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # relative to the package
                module = "cbgraph" + (f".{module}" if module else "")
            found.add(module)
            if module == "cbgraph":
                found |= {f"cbgraph.{a.name}" for a in node.names}
    assert not {f"cbgraph.{m}" for m in ABOVE_OPS} & found, sorted(found)
