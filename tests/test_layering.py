"""Imports of `cbgraph` run one way, at module top, and curves are
traced in one place.

No module imports inside a function, and `ops`, which the cutting and
compression-body layers build on, imports none of `cut`, `cb` or
`projections`.  Only `curves` traces normal coordinates: the drawing and
cutting layers read the trace a `CurveClass` keeps.  Nothing loads
`hashlib`, whose OpenSSL library would cost 3.6 MB of resident memory,
and nothing imports `fractions`: slopes are integer pairs, and curves
are authored by the polygon sides they cross.

No module reaches into another's private names: `cut` reads the corner
table from the public `curves.corner_counts`.  The turn tables and first
incidences of the triangulation are owned by `surface`: no other module
tells an edge's first side by comparing an entry of `sides` with a
(triangle, slot) pair, but reads `Triangulation.first`.  Only
`position` knows how a reduced pair is stored: `ops` and `projections`
read it through `Reduced`'s methods and name none of its arrays, and no
module reads the per-strand lists and positions it once kept.

Words have one representation, encoded text, and `kernel` holds one
function per word operation and no int-tuple twin.  `decode` is imported
only where int letters leave as public output or become array indices:
`curves` (`CurveClass.words`, `vertex_canonical`, `trace_components`),
`projections` (the `b_arc` of `innermost_surgery`) and `geom` (the chord
arrays of `Drawing._build`).  No module outside `kernel` defines a word
function: none defines a function under a kernel function's name or a
twin's, and none reverses a word inline by `[::-1].translate`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cbgraph
from cbgraph.geom import Drawing
from cbgraph.polygon import handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation

SRC = Path(cbgraph.__file__).parent
ABOVE_OPS = {"cut", "cb", "projections"}
REDUCED_ARRAYS = {"cross", "other", "positive", "succ", "pred", "chord", "strand_of", "firsts"}
DECODERS = {"curves.py", "projections.py", "geom.py"}
WORD_FUNCTIONS = {"encode", "decode", "cyclic_reduce", "reverse_word", "min_rotation", "canonical_cyclic"}
TWINS = {"free_reduce", "canonical_reduced", "cyclic_reduce_text", "min_rotation_text", "canonical_text"}


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def _imported_names(name):
    return {
        a.name
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def _makes_tracer(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "_Tracer"


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


def test_only_curves_traces():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "curves.py":
            continue
        nodes = list(ast.walk(_tree(path.name)))
        # Names bound to a `_Tracer(...)`, such as `tracer` or `self.tracer`.
        tracers = {
            ast.unparse(target)
            for node in nodes
            if isinstance(node, ast.Assign) and _makes_tracer(node.value)
            for target in node.targets
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in nodes
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "components"
            and (_makes_tracer(node.func.value) or ast.unparse(node.func.value) in tracers)
        ]
    assert not found, found


def test_no_module_imports_fractions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "fractions"
            ]
    assert not found, found


def test_drawing_and_cutting_read_the_kept_trace():
    assert "_Tracer" not in _imported_names("geom.py")
    assert "canonical_cyclic" not in _imported_names("cut.py")


def test_loading_curves_leaves_hashlib_unloaded():
    script = (
        "import sys\n"
        "import cbgraph.cli, cbgraph.suites\n"
        "from cbgraph.curves import CurveClass\n"
        "from cbgraph.surface import standard_triangulation\n"
        "standard_triangulation(4)\n"
        "CurveClass.from_json({'genus': 2, 'weights': [2, 2, 0, 0, 2, 2, 0, 0, 0]})\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(_tree(path.name)))
        # Modules of the package bound to a name, as by `from cbgraph import ops`.
        modules = set()
        for node in nodes:
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if node.module == "cbgraph":
                modules |= {a.asname or a.name for a in node.names}
            elif node.module.startswith("cbgraph."):
                found += [(path.name, a.name) for a in node.names if _private(a.name)]
        found += [
            (path.name, node.attr)
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ]
    assert not found, sorted(set(found))


def _reads_sides(node):
    # An entry of a side pair, such as `tri.sides[e][0]`.
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Attribute)
        and node.value.value.attr == "sides"
    )


def test_only_surface_compares_incidences():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "surface.py":
            continue
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(_tree(path.name))
            if isinstance(node, ast.Compare)
            and any(map(_reads_sides, [node.left, *node.comparators]))
        ]
    assert not found, found


def test_only_position_reads_the_halves_of_a_reduced_pair():
    found = []
    for name in ("ops.py", "projections.py"):
        nodes = list(ast.walk(_tree(name)))
        # A method call such as `SideSelector.other()` names no array.
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        found += [
            f"{name}:{node.lineno} .{node.attr}"
            for node in nodes
            if isinstance(node, ast.Attribute)
            and node.attr in REDUCED_ARRAYS
            and id(node) not in called
        ]
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(_tree(path.name))
            if isinstance(node, ast.Attribute)
            and (
                node.attr in ("seqs", "arcs")
                or node.attr == "index" and "reduced" in ast.unparse(node.value)
            )
        ]
    assert not found, found
    tri = standard_triangulation(2)
    reduced = Reduced(Drawing(tri, handle_curves(tri)[:2]))
    assert not [n for n in ("seqs", "arcs", "_index", "index") if hasattr(reduced, n)]


def _defined(name):
    return {
        node.name
        for node in ast.walk(_tree(name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_kernel_has_one_function_per_word_operation():
    public = {n for n in _defined("kernel.py") if not n.startswith("_")}
    assert public == WORD_FUNCTIONS


def test_only_the_output_edges_decode():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernel.py":
            continue
        if "decode" in _imported_names(path.name) or any(
            isinstance(node, ast.Attribute) and node.attr == "decode"
            and ast.unparse(node.value) == "kernel"
            for node in ast.walk(_tree(path.name))
        ):
            found.add(path.name)
    assert found <= DECODERS, sorted(found)


def _reverses_inline(node):
    # `word[::-1].translate(flip)`, the body of `kernel.reverse_word`.
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "translate"
        and isinstance(node.func.value, ast.Subscript)
        and ast.unparse(node.func.value.slice) == "::-1"
    )


def test_no_module_outside_kernel_defines_a_word_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernel.py":
            continue
        found += [f"{path.name} {n}" for n in _defined(path.name) & (WORD_FUNCTIONS | TWINS)]
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(_tree(path.name))
            if _reverses_inline(node)
        ]
    assert not found, found
    assert not _defined("kernel.py") & TWINS
