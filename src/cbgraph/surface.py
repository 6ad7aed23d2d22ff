"""Fixed one-vertex triangulations of closed orientable surfaces.

The genus-g surface is modelled as a 4g-gon with the side identification
a b a' b' c d c' d' ..., fan-triangulated by diagonals from vertex 0.  All
4g corners map to a single vertex, giving 4g - 2 triangles and 6g - 3
edges.  Curves are stored elsewhere as sequences of edges crossed; this
module only provides the combinatorics: triangle/edge incidences, the
rotation around the vertex, and the vertex-linking word.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

_ASSET_DIR = Path(__file__).parent / "assets"


class Triangulation:
    """One-vertex triangulation of the closed genus-g surface.

    Edges 0..2g-1 are the identified polygon side pairs, edges 2g..6g-4
    the fan diagonals.  Each triangle is a triple of edge ids in ccw
    order; `sides[e]` gives the two (triangle, slot) incidences of edge e.
    Gluings always reverse the slot parameter (param x in one frame is
    1 - x in the other).
    """

    __slots__ = (
        "genus",
        "triangles",
        "sides",
        "mate",
        "side_edge",
        "vertex_link",
        "checksum",
    )

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("genus must be >= 2")
        self.genus = genus
        n = 4 * genus

        # Polygon side j -> edge id, pattern a b a' b' per handle.
        def side_edge(j: int) -> int:
            k, r = divmod(j, 4)
            return 2 * k + (r % 2)

        # Diagonal from vertex 0 to vertex v (2 <= v <= n-2) -> edge id.
        def diag_edge(v: int) -> int:
            return 2 * genus + (v - 2)

        triangles = []
        for i in range(n - 2):
            a = side_edge(0) if i == 0 else diag_edge(i + 1)
            b = side_edge(i + 1)
            c = side_edge(n - 1) if i == n - 3 else diag_edge(i + 2)
            triangles.append((a, b, c))
        self.triangles = tuple(triangles)

        sides: dict[int, list[tuple[int, int]]] = {}
        for t, tri in enumerate(self.triangles):
            for slot, e in enumerate(tri):
                sides.setdefault(e, []).append((t, slot))
        if any(len(v) != 2 for v in sides.values()):
            raise RuntimeError("bad gluing: every edge needs two sides")
        self.sides = {e: tuple(v) for e, v in sides.items()}

        # Directed-crossing letters: letter 3t + s means "cross the edge at
        # slot s of triangle t, entering t".  The mate letter is the same
        # crossing traversed backwards.
        mate = []
        side_edge = []
        for t in range(self.num_triangles):
            for s in range(3):
                t2, s2 = self.opposite(t, s)
                mate.append(3 * t2 + s2)
                side_edge.append(self.triangles[t][s])
        self.mate = tuple(mate)
        self.side_edge = tuple(side_edge)

        self.vertex_link = self._compute_vertex_link()
        payload = {"genus": genus, "triangles": [list(t) for t in self.triangles]}
        self.checksum = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    @property
    def num_edges(self) -> int:
        return 6 * self.genus - 3

    @property
    def num_triangles(self) -> int:
        return 4 * self.genus - 2

    def opposite(self, tri: int, slot: int) -> tuple[int, int]:
        """The other (triangle, slot) incidence of the same edge."""
        a, b = self.sides[self.triangles[tri][slot]]
        return b if a == (tri, slot) else a

    def side_of(self, letter: int) -> tuple[int, int]:
        """(triangle entered, slot) of a directed-crossing letter."""
        return divmod(letter, 3)

    def letter(self, tri: int, slot: int) -> int:
        return 3 * tri + slot

    def _compute_vertex_link(self) -> tuple[int, ...]:
        # The vertex-linking curve as a directed-crossing word: rotating
        # the corner (t, k) across the edge at slot k enters the opposite
        # triangle, giving one letter per corner.
        corners = {(t, k) for t in range(self.num_triangles) for k in range(3)}
        cur = (0, 0)
        word = []
        seen = []
        while cur in corners:
            corners.remove(cur)
            seen.append(cur)
            t2, s2 = self.opposite(cur[0], cur[1])
            word.append(3 * t2 + s2)
            cur = (t2, (s2 + 1) % 3)
        if corners or cur != seen[0]:
            raise RuntimeError("polygon identification does not give one vertex")
        return tuple(word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triangulation) and self.checksum == other.checksum

    def __hash__(self) -> int:
        return hash(self.checksum)

    def __repr__(self) -> str:
        return f"Triangulation(genus={self.genus}, checksum={self.checksum})"


@lru_cache(maxsize=None)
def standard_triangulation(genus: int) -> Triangulation:
    """The shipped triangulation for this genus, checked against assets."""
    tri = Triangulation(genus)
    asset = _ASSET_DIR / f"triangulation_g{genus}.json"
    if asset.exists():
        data = json.loads(asset.read_text())
        if data["checksum"] != tri.checksum or data["triangles"] != [
            list(t) for t in tri.triangles
        ]:
            raise RuntimeError(f"asset {asset} disagrees with the built triangulation")
    return tri
