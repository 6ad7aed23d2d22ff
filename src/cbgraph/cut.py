"""Cutting the surface along a disjoint curve system.

The normal arcs of the system chop every triangle into corner cells and
one central cell (`curves.corner_counts` gives the arcs at each
corner).  Gluing cells across the triangulation edges (interval by
interval, parameters reversed) makes one cell graph, built once per
complex: each cell lists its gluings in gluing order.  The complement
regions are the graph's components, each named by its first cell.
Each region is a graph of disks glued along boundary arcs, so its
Euler characteristic is #cells - #gluings, plus one for the region
that keeps the triangulation vertex; every curve component donates one
boundary circle to the region on each of its two sides, and genus
follows from chi = 2 - 2h - b.  A curve inside a region
(`nonseparating_in_region`) and a curve across a component
(`dual_curve`) are read off breadth-first trees of the same graph.

All of it is integer cell bookkeeping.  Whether a curve lies in the
punctured-torus side of a separating curve is read off its algebraic
intersection with a curve from `nonseparating_in_region` (see
`cb.meridian_of_small`).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache

from cbgraph import MEMO_ENTRIES, ops
from cbgraph.curves import CurveClass, corner_counts, translate_tables
from cbgraph.kernel import reverse_word
from cbgraph.surface import Triangulation

CENTRAL = -1


class CutComplex:
    """The surface cut along a disjoint multicurve system.

    `adjacent` maps each cell to its gluings in gluing order, as
    (cell, edge, +1 or -1, letter): the letter is that of the edge's
    second incidence crossed from the first side (+1), or its mate
    crossed back (-1).  `region` maps each cell to its region.
    """

    def __init__(self, tri: Triangulation, system: CurveClass | None):
        self.tri = tri
        self.system = system
        weights = system.weights if system else (0,) * tri.num_edges
        self.corners = corner_counts(tri, weights)
        cells = []
        for t, counts in enumerate(self.corners):
            cells.append((t, CENTRAL))
            cells += [(t, k, j) for k in range(3) for j in range(counts[k])]

        # Glue cells interval-by-interval across every edge.
        flip = translate_tables(tri).flip
        self.adjacent = {cell: [] for cell in cells}
        self.gluings = []
        for e in range(tri.num_edges):
            (t1, s1), (t2, s2) = tri.sides[e]
            w = weights[e]
            fwd = 3 * t2 + s2
            for i in range(w + 1):
                c1 = self._interval_cell(t1, s1, i, w)
                c2 = self._interval_cell(t2, s2, w - i, w)
                self.adjacent[c1].append((c2, e, 1, chr(fwd)))
                self.adjacent[c2].append((c1, e, -1, flip[fwd]))
                self.gluings.append((c1, c2, e, t2, s2))

        self.region = {}
        for cell in cells:
            if cell not in self.region:
                self.region.update(dict.fromkeys(self._tree(cell), cell))
        cell_count = Counter(self.region.values())
        glue_count = Counter(self.region[c1] for c1, *_ in self.gluings)
        self.chi = {r: n - glue_count[r] for r, n in cell_count.items()}

        # All triangle corners are the one vertex of the triangulation;
        # it survives the cut as an interior point of a single region and
        # contributes +1 there (cells away from it are glued along arcs
        # with free endpoints, which the cells-minus-gluings count covers).
        vertex_cells = {
            self.region[(t, k, 0) if counts[k] else (t, CENTRAL)]
            for t, counts in enumerate(self.corners)
            for k in range(3)
        }
        if len(vertex_cells) != 1:
            raise RuntimeError("vertex corners landed in several regions")
        self.vertex_region = vertex_cells.pop()
        self.chi[self.vertex_region] += 1

        # Boundary circles: each component of the system's trace
        # contributes one circle to the region on each of its sides.
        self.boundary = {r: 0 for r in self.chi}
        self.component_sides = []
        self._trace = system.trace if system else ()
        for text, pos, _ in self._trace:
            pair = tuple(self.region[c] for c in self._arc_cells(ord(text[0]), pos[0]))
            self.component_sides.append(pair)
            for r in pair:
                self.boundary[r] += 1

    def _interval_cell(self, t, slot, i, w):
        n = self.corners[t]
        if i < n[slot]:
            return (t, slot, i)
        if i == n[slot]:
            return (t, CENTRAL)
        return (t, (slot + 1) % 3, w - i)

    def _arc_cells(self, lam, pos):
        # The cells on the two sides of one passage of a component, the
        # one toward the corner its arc cuts off first.
        tri = self.tri
        t, slot = tri.side_of(lam)
        w = self.system.weights[tri.side_edge[lam]]
        # The triangle-frame position of the entry point.
        p = pos if tri.first[lam] else w - 1 - pos
        below, above = (self._interval_cell(t, slot, i, w) for i in (p, p + 1))
        return (below, above) if p < self.corners[t][slot] else (above, below)

    def _tree(self, root, stop=None) -> dict:
        """Breadth-first tree of the cell graph from root, until it
        reaches stop: each cell reached to its parent followed by the
        rest of the gluing record that reached it, root to None."""
        prev = {root: None}
        queue = deque([root])
        while queue and stop not in prev:
            cur = queue.popleft()
            for nxt, *step in self.adjacent[cur]:
                if nxt not in prev:
                    prev[nxt] = (cur, *step)
                    queue.append(nxt)
        return prev

    def component_index(self, c: CurveClass) -> int:
        """Index in the system's trace of the component isotopic to c."""
        if not c.is_connected:
            raise ValueError("component lookup needs a connected curve")
        try:
            return [canon for _, _, canon in self._trace].index(c.texts[0])
        except ValueError:
            raise ValueError("curve is not a component of the system") from None

    def sides_of(self, c: CurveClass):
        """The pair of regions on the two sides of the system component c."""
        return self.component_sides[self.component_index(c)]

    def region_genus(self, region) -> int:
        return (2 - self.chi[region] - self.boundary[region]) // 2

    def profile(self):
        """Sorted (genus, boundary_count) records of the cut components."""
        out = []
        for r, chi in self.chi.items():
            b = self.boundary[r]
            h2 = 2 - chi - b
            if h2 % 2:
                raise RuntimeError("non-integral genus in cut component")
            out.append((h2 // 2, b))
        return sorted(out)

    def region_containing(self, c: CurveClass):
        """Region holding the curve c, for c disjoint from the system.

        Decided geometrically: in the joint normal arrangement of the
        system and c, a crossing point of c lies in a definite interval
        between system points on its edge, which names a cell.
        """
        if not c.is_connected:
            raise ValueError("region lookup needs a connected curve")
        if self.system is None:
            return self.region[(0, CENTRAL)]
        if c.texts[0] in self.system.texts:
            raise ValueError("curve is a component of the system itself")
        trace = disjoint_union([self.system, c]).trace
        anchor = next(((ord(t[0]), p[0]) for t, p, w in trace if w == c.texts[0]), None)
        if anchor is None:
            raise RuntimeError("curve not found in the joint trace")
        # A traced cycle starts at its least point in (edge, position)
        # order, so the points below c's first one on its edge are all
        # system points: as many as its position.
        lam, below = anchor
        e = self.tri.side_edge[lam]
        t1, s1 = self.tri.sides[e][0]
        return self.region[self._interval_cell(t1, s1, below, self.system.weights[e])]

    def nonseparating_in_region(self, region) -> CurveClass:
        """An essential nonseparating curve embedded inside the region.

        Built from a spanning tree of the region's cells: a non-tree
        gluing with homologically nontrivial loop closes up into a
        simple curve (the shared tree prefix cancels on reduction).
        """
        tri = self.tri
        vec, path = {}, {}
        for cell, step in self._tree(region).items():
            if step is None:
                vec[cell], path[cell] = [0] * tri.num_edges, ""
                continue
            parent, e, sign, letter = step
            vec[cell] = v = list(vec[parent])
            v[e] += sign
            path[cell] = path[parent] + letter
        # A gluing counts +1 along the letter of its edge's second
        # incidence (t2, s2); those of the tree close no loop.
        for c1, c2, e, t2, s2 in self.gluings:
            if c1 not in vec:
                continue
            loop = [a - b for a, b in zip(vec[c1], vec[c2])]
            loop[e] += 1
            if any(loop):
                back = reverse_word(path[c2], translate_tables(tri).flip)
                return CurveClass.from_texts(tri, [path[c1] + chr(3 * t2 + s2) + back])
        raise ValueError("region carries no nonseparating curve")


def disjoint_union(system) -> CurveClass | None:
    """The multicurve union of pairwise disjoint classes (None if empty)."""
    curves = sorted(set(system))
    if not curves:
        return None
    tri = curves[0].tri
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            if ops.intersect(a, b) != 0:
                raise ValueError("system is not pairwise disjoint")
    weights = [0] * tri.num_edges
    for c in curves:
        weights = [x + y for x, y in zip(weights, c.weights)]
    return CurveClass.from_weights(tri, weights)


def cut_profile(tri: Triangulation, system):
    """Sorted (genus, boundary_count) records of S cut along the system.

    Memoised per process on the set of system curves; every call
    returns a fresh list.
    """
    return list(_cut_profile(tri, tuple(sorted(set(system)))))


@lru_cache(maxsize=MEMO_ENTRIES)
def _cut_profile(tri: Triangulation, system) -> tuple:
    return tuple(CutComplex(tri, disjoint_union(system)).profile())


def dual_curve(a: CurveClass, avoid) -> CurveClass:
    """A curve crossing a exactly once and missing every curve in avoid.

    Found as a shortest cell path through the complement of the whole
    system from one side of a to the other, closed up across a; the
    path crosses no system arc, so the result is disjoint from the
    avoided curves, and a single transversal point with nonzero mod-2
    pairing pins the intersection number with a at one.  Fails when the
    two sides of a cannot be joined in the complement.
    """
    tri = a.tri
    if not a.is_connected:
        raise ValueError("dual_curve needs a connected curve")
    cc = CutComplex(tri, disjoint_union([a, *avoid]))
    text, pos, _ = cc._trace[cc.component_index(a)]
    outer, inner = cc._arc_cells(ord(text[0]), pos[0])
    prev = cc._tree(inner, outer)
    if outer not in prev:
        raise ValueError("the two sides of the curve do not meet in the complement")
    word = []
    cell = outer
    while prev[cell] is not None:
        cell, *_, letter = prev[cell]
        word.append(letter)
    return CurveClass.from_texts(tri, ["".join(reversed(word))])
