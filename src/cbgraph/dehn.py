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
"""

from __future__ import annotations

from functools import lru_cache

from cbgraph.kernel import cyclic_reduce, encode, reverse_word
from cbgraph.surface import Triangulation


@lru_cache(maxsize=None)
def _link_texts(tri: Triangulation) -> tuple[str, str]:
    """The vertex link and its reverse, each encoded and doubled."""
    link = tri.vertex_link
    return encode(link) * 2, encode(reverse_word(link, tri.mate)) * 2


def is_trivial(tri: Triangulation, loop) -> bool:
    """Whether a simple closed dual loop is null-homotopic on the surface."""
    w = cyclic_reduce(loop, tri.mate)
    if len(w) != len(tri.vertex_link):
        return not w
    text = encode(w)
    return any(text in doubled for doubled in _link_texts(tri))
