"""Whether a simple closed dual loop is null-homotopic on the surface.

The surface minus its vertex v retracts to the dual graph, where each
free homotopy class has one cyclically reduced closed path, up to
rotation (Stallings, "Topology of finite graphs", 1983).  A simple loop
that is null on the surface bounds a disc (Epstein, "Curves on
2-manifolds and isotopies", 1966).  A disc that misses v makes the loop
trivial off v; one that holds v makes it freely homotopic off v to the
vertex link or its reverse, which bound the disc around v.  So a simple
loop is null exactly when its cyclic reduction is empty or a rotation
of the link or of its reverse.

The loop must be simple, and both kinds asked about are: the loop of a
bigon candidate of `position.Reduced`, whose corners are adjacent along
both strands, so that its two arcs, pieces of simple strands, meet only
there; and a boundary circle of the ribbon in `ops.neighborhood_profile`,
the boundary of a thin neighbourhood of the union that misses v.

A loop is encoded text, as `Reduced` gives it; the link and its reverse,
doubled so that every rotation is a substring, are read from
`curves.translate_tables`.
"""

from __future__ import annotations

from cbgraph.curves import translate_tables
from cbgraph.kernel import cyclic_reduce
from cbgraph.surface import Triangulation


def is_trivial(tri: Triangulation, loop: str) -> bool:
    """Whether a simple closed dual loop, encoded as text, is
    null-homotopic on the surface."""
    tables = translate_tables(tri)
    w = cyclic_reduce(loop, tables.flip)
    if len(w) != len(tri.vertex_link):
        return not w
    return any(w in doubled for _, doubled in tables.directions)
