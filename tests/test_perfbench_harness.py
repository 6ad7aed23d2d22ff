"""The benchmark's layer tracer still binds to the package it measures.

`perfbench/spans.py` wraps named functions and constructors of cbgraph
in place; a rename or fold of any of them must fail here, not only
when the benchmark runs.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from conftest import MEMOS  # noqa: E402
from spans import Layers, Tracer  # noqa: E402

from cbgraph import geom, kernel, ops  # noqa: E402
from cbgraph.polygon import handle_curves  # noqa: E402
from cbgraph.surface import standard_triangulation  # noqa: E402


def test_layers_install_trace_and_remove():
    tri = standard_triangulation(2)
    a, b = handle_curves(tri)[:2]
    originals = (ops.intersect, ops.twist, geom.Drawing.__init__, kernel.min_rotation)
    layers = Layers(Tracer())
    installed = layers.install()
    try:
        assert ops.intersect(a, ops.twist(b, a, 1)) == 1
    finally:
        installed.remove()
    assert (ops.intersect, ops.twist, geom.Drawing.__init__, kernel.min_rotation) == originals
    metrics = layers.metrics()
    assert metrics["ops.intersect.calls"] == 1
    assert metrics["ops.twist.calls"] == 1
    # The twist draws (b, a), which cross once; the corner counts show
    # a and T_a(b) drawn in raw = |algebraic| = 1 position, so the
    # intersection is read without a second drawing.
    assert metrics["geom.Drawing.calls"] == 1
    assert metrics["geom.crossings"] == 1
    assert kernel.BACKEND == "python"


def test_the_null_homotopy_span_sees_calls():
    # `dehn.is_trivial` is measured under its module's name; the
    # boundary circles of a crossing pair's neighbourhood must reach it,
    # so the span cannot go dead unnoticed.  The kernel's text functions
    # carry the names that the spans bind, so one cold pass of the pair
    # operations reaches every one of them too.
    tri = standard_triangulation(2)
    a, b = handle_curves(tri)[:2]
    for memo in MEMOS:
        memo.cache_clear()
    ops.LAST_PAIR.clear()
    layers = Layers(Tracer())
    installed = layers.install()
    try:
        prof = ops.neighborhood_profile([a, b])
        c = ops.twist(b, a, 1)
        assert ops.intersect(a, c) == 1
    finally:
        installed.remove()
    assert prof.boundary_components == 1
    metrics = layers.metrics()
    spans = ("cyclic_reduce", "reverse_word", "min_rotation", "canonical_cyclic")
    calls = {name: metrics[f"kernel.{name}.calls"] for name in spans}
    calls["dehn.is_trivial"] = metrics["dehn.is_trivial.calls"]
    assert min(calls.values()) >= 1, calls
