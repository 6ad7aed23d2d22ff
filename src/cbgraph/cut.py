"""Cutting the surface along a disjoint curve system.

The normal arcs of the system chop every triangle into corner cells and
one central cell; gluing cells across the triangulation edges (interval
by interval, parameters reversed) assembles the complement regions.
Each region is a graph of disks glued along boundary arcs, so its
Euler characteristic is #cells - #gluings, plus one for the region
that keeps the triangulation vertex; every curve component donates one
boundary circle to the region on each of its two sides, and genus
follows from chi = 2 - 2h - b.

All of it is integer cell bookkeeping.  Whether a curve lies in the
punctured-torus side of a separating curve is read off its algebraic
intersection with a curve from `nonseparating_in_region` (see
`cb.meridian_of_small`).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache

from cbgraph import MEMO_ENTRIES, ops
from cbgraph.curves import CurveClass, _Tracer, translate_tables
from cbgraph.kernel import reverse_word
from cbgraph.surface import Triangulation

CENTRAL = -1


class _Regions:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


class CutComplex:
    """The surface cut along a disjoint multicurve system."""

    def __init__(self, tri: Triangulation, system: CurveClass | None):
        self.tri = tri
        self.system = system
        weights = system.weights if system else (0,) * tri.num_edges
        self.corners = _Tracer(tri, weights).corners
        self.regions = _Regions()
        for t in range(tri.num_triangles):
            self.regions.add((t, CENTRAL))
            for k in range(3):
                for j in range(self.corners[t][k]):
                    self.regions.add((t, k, j))

        # Glue cells interval-by-interval across every edge.
        self.gluings = []
        for e in range(tri.num_edges):
            (t1, s1), (t2, s2) = tri.sides[e]
            w = weights[e]
            for i in range(w + 1):
                c1 = self._interval_cell(t1, s1, i, w)
                c2 = self._interval_cell(t2, s2, w - i, w)
                self.regions.union(c1, c2)
                self.gluings.append((c1, c2, e, t2, s2))

        cells_of = {}
        for cell in self.regions.parent:
            cells_of.setdefault(self.regions.find(cell), []).append(cell)
        glue_count = Counter(self.regions.find(c1) for c1, *_ in self.gluings)
        self.chi = {r: len(cs) - glue_count[r] for r, cs in cells_of.items()}
        self._cells_of = cells_of

        # All triangle corners are the one vertex of the triangulation;
        # it survives the cut as an interior point of a single region and
        # contributes +1 there (cells away from it are glued along arcs
        # with free endpoints, which the cells-minus-gluings count covers).
        vertex_cells = set()
        for t in range(tri.num_triangles):
            for k in range(3):
                cell = (t, k, 0) if self.corners[t][k] > 0 else (t, CENTRAL)
                vertex_cells.add(self.regions.find(cell))
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
            pair = tuple(map(self.regions.find, self._arc_cells(ord(text[0]), pos[0])))
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
        # One passage of a component: a corner arc separating a
        # corner-side cell from the next cell inward.
        tri = self.tri
        t, s_in = tri.side_of(lam)
        n = self.corners[t]
        e = tri.side_edge[lam]
        w = self.system.weights[e]
        # Recover the triangle-frame position of the entry point.
        p = pos if tri.first[lam] else w - 1 - pos
        if p < n[s_in]:
            corner, a = s_in, p + 1
        else:
            corner, a = (s_in + 1) % 3, w - p
        outer = (t, corner, a - 1)
        inner = (t, corner, a) if a < n[corner] else (t, CENTRAL)
        return outer, inner

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
            return self.regions.find((0, CENTRAL))
        comps = [self.system] if self.system.is_connected else self.system.components()
        if any(c == x for x in comps):
            raise ValueError("curve is a component of the system itself")
        trace = disjoint_union(comps + [c]).trace
        anchor = next(((ord(t[0]), p[0]) for t, p, w in trace if w == c.texts[0]), None)
        if anchor is None:
            raise RuntimeError("curve not found in the joint trace")
        # A traced cycle starts at its least point in (edge, position)
        # order, so the points below c's first one on its edge are all
        # system points: as many as its position.
        lam, below = anchor
        e = self.tri.side_edge[lam]
        t1, s1 = self.tri.sides[e][0]
        cell = self._interval_cell(t1, s1, below, self.system.weights[e])
        return self.regions.find(cell)

    def nonseparating_in_region(self, region) -> CurveClass:
        """An essential nonseparating curve embedded inside the region.

        Built from a spanning tree of the region's cells: a non-tree
        gluing with homologically nontrivial loop closes up into a
        simple curve (the shared tree prefix cancels on reduction).
        """
        tri = self.tri
        flip = translate_tables(tri).flip
        root = self._cells_of[region][0]
        adj = {}
        locals_ = []
        for gi, (c1, c2, e, t2, s2) in enumerate(self.gluings):
            if self.regions.find(c1) != region:
                continue
            # (t2, s2) is the edge's second incidence, so every gluing
            # counts +1 along its letter fwd, kept as encoded text.
            fwd = 3 * t2 + s2
            locals_.append((gi, c1, c2, e, chr(fwd)))
            adj.setdefault(c1, []).append((c2, e, 1, gi, chr(fwd)))
            adj.setdefault(c2, []).append((c1, e, -1, gi, flip[fwd]))
        vec = {root: [0] * tri.num_edges}
        path = {root: ""}
        tree = set()
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt, e, sign, gi, letter in adj.get(cur, []):
                if nxt in vec:
                    continue
                v = list(vec[cur])
                v[e] += sign
                vec[nxt] = v
                path[nxt] = path[cur] + letter
                tree.add(gi)
                queue.append(nxt)
        for gi, c1, c2, e, fwd in locals_:
            if gi in tree:
                continue
            loop = [a - b for a, b in zip(vec[c1], vec[c2])]
            loop[e] += 1
            if not any(loop):
                continue
            word = path[c1] + fwd + reverse_word(path[c2], flip)
            return CurveClass.from_texts(tri, [word])
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
    union = disjoint_union([a, *avoid])
    cc = CutComplex(tri, union)
    text, pos, _ = cc._trace[cc.component_index(a)]
    outer, inner = cc._arc_cells(ord(text[0]), pos[0])

    flip = translate_tables(tri).flip
    adj = {}
    for c1, c2, e, t2, s2 in cc.gluings:
        fwd = 3 * t2 + s2
        adj.setdefault(c1, []).append((c2, chr(fwd)))
        adj.setdefault(c2, []).append((c1, flip[fwd]))
    prev = {inner: None}
    queue = deque([inner])
    while queue and outer not in prev:
        cur = queue.popleft()
        for nxt, letter in adj.get(cur, []):
            if nxt not in prev:
                prev[nxt] = (cur, letter)
                queue.append(nxt)
    if outer not in prev:
        raise ValueError("the two sides of the curve do not meet in the complement")
    word = []
    cell = outer
    while prev[cell] is not None:
        cell, letter = prev[cell]
        word.append(letter)
    return CurveClass.from_texts(tri, ["".join(reversed(word))])
