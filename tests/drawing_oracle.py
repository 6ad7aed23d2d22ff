"""The rational-coordinate drawing, kept as a differential oracle.

This is the drawing `cbgraph.geom.Drawing` replaced: it places rational
points on the triangulation edges, draws every passage through a
triangle as a straight chord in the convex rational 4g-gon, solves
every pair of chords in a triangle by Cramer's rule in `Fraction`s and
respaces the points when it meets a degeneracy.  It accepts any number
of curves.  Tests require the integer drawing to give the same
crossings, signs and crossing orders, and use this one to draw the
three- and four-curve sets that exercise bigon-removal order.  Its
strands hold their letters as encoded text, as the integer drawing's
do.
"""

from __future__ import annotations

from fractions import Fraction

from canonical_oracle import StepTracer
from cbgraph.geom import Crossing, Strand
from cbgraph.kernel import encode
from cbgraph.surface import Triangulation
from polygon_oracle import polygon_vertices


class DegenerateDrawing(Exception):
    """A chord hit a chord endpoint or a collinear chord; respace and retry."""


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class FractionDrawing:
    """Simultaneous exact drawing of several multicurves."""

    def __init__(self, tri: Triangulation, curves):
        self.tri = tri
        self.curves = list(curves)
        for c in self.curves:
            if c.tri != tri:
                raise ValueError("curve drawn on a different triangulation")
        # Respace deterministically if an accidental degeneracy appears.
        for spread in (1, 3, 7, 31, 127, 8191):
            try:
                self._build(spread)
                return
            except DegenerateDrawing:
                continue
        raise RuntimeError("could not find a nondegenerate spacing")

    def _build(self, spread: int):
        tri = self.tri
        totals = [0] * tri.num_edges
        offsets = []
        for c in self.curves:
            offsets.append(tuple(totals))
            totals = [a + b for a, b in zip(totals, c.weights)]

        self.strands = []
        for ci, c in enumerate(self.curves):
            for mi, cycle in enumerate(StepTracer(tri, c.weights).components()):
                letters = [lam for lam, _ in cycle]
                keys = []
                for lam, pos in cycle:
                    e = tri.side_edge[lam]
                    g = offsets[ci][e] + pos
                    keys.append(Fraction(g * spread + 1, totals[e] * spread + 1))
                self.strands.append(Strand(ci, mi, encode(letters), keys))

        verts = polygon_vertices(tri.genus)
        corner_cache = {}

        def corners(t):
            got = corner_cache.get(t)
            if got is None:
                got = (verts[0], verts[t + 1], verts[t + 2])
                corner_cache[t] = got
            return got

        def coords(t, lam_edge, key, slot):
            # Point with canonical-frame parameter `key` on the edge at
            # `slot` of triangle t, in polygon coordinates.
            a = corners(t)[slot]
            b = corners(t)[(slot + 1) % 3]
            e = lam_edge
            p = key if self.tri.sides[e][0] == (t, slot) else 1 - key
            return (a[0] + p * (b[0] - a[0]), a[1] + p * (b[1] - a[1]))

        # Chord endpoints: chord k of a strand runs inside the triangle of
        # letter k, from point k (entry) to point k+1 (exit).
        self._chords = {}
        by_triangle = {}
        for s in self.strands:
            n = len(s)
            for k in range(n):
                lam = ord(s.letters[k])
                t, slot = tri.side_of(lam)
                lam2 = ord(s.letters[(k + 1) % n])
                e2 = tri.side_edge[lam2]
                t2b, slot2b = tri.side_of(tri.mate[lam2])
                if t2b != t:
                    raise RuntimeError("strand letters do not chain")
                p = coords(t, tri.side_edge[lam], s.keys[k], slot)
                q = coords(t, e2, s.keys[(k + 1) % n], slot2b)
                self._chords[(s, k)] = (p, q)
                by_triangle.setdefault(t, []).append((s, k))

        self.crossings = []
        for t, chords in by_triangle.items():
            for i in range(len(chords)):
                s1, k1 = chords[i]
                a, b = self._chords[(s1, k1)]
                for j in range(i + 1, len(chords)):
                    s2, k2 = chords[j]
                    if s1.curve == s2.curve:
                        continue
                    c, d = self._chords[(s2, k2)]
                    d1 = (b[0] - a[0], b[1] - a[1])
                    d2 = (d[0] - c[0], d[1] - c[1])
                    den = d1[0] * d2[1] - d1[1] * d2[0]
                    if den == 0:
                        if _cross(a, b, c) == 0:
                            raise DegenerateDrawing
                        continue
                    # Solve a + p1*d1 = c + p2*d2 exactly (Cramer).
                    rx, ry = c[0] - a[0], c[1] - a[1]
                    p1 = Fraction(rx * d2[1] - ry * d2[0], den)
                    p2 = Fraction(rx * d1[1] - ry * d1[0], den)
                    if p1 in (0, 1) or p2 in (0, 1):
                        raise DegenerateDrawing
                    if 0 < p1 < 1 and 0 < p2 < 1:
                        sign = 1 if den > 0 else -1
                        self.crossings.append(
                            Crossing(s1, k1, p1, s2, k2, p2, sign)
                        )

        # Per strand and chord, [(param, Crossing)] sorted.
        self._along = {s: [[] for _ in range(len(s))] for s in self.strands}
        for x in self.crossings:
            self._along[x.s1][x.k1].append((x.p1, x))
            self._along[x.s2][x.k2].append((x.p2, x))
        for s in self.strands:
            for lst in self._along[s]:
                lst.sort(key=lambda pair: pair[0])
                params = [p for p, _ in lst]
                if len(set(params)) != len(params):
                    raise DegenerateDrawing

    def strand_sequence(self, strand: Strand) -> list[Crossing]:
        """Crossings in cyclic order along the strand."""
        out = []
        for lst in self._along[strand]:
            out.extend(x for _, x in lst)
        return out

    def arc_letters(self, strand: Strand, x: Crossing, y: Crossing) -> str:
        """Directed crossings traversed from x to y along the strand.

        x and y must be consecutive crossings of the strand (y may equal
        x when it is the only one).
        """
        kx, px, _, _ = x.strand_data(strand)
        ky, py, _, _ = y.strand_data(strand)
        n = len(strand)
        if kx == ky and (x is y or px < py):
            if x is y:
                return strand.letters[kx + 1 :] + strand.letters[: kx + 1]
            return ""
        ks = []
        k = (kx + 1) % n
        while True:
            ks.append(k)
            if k == ky:
                break
            k = (k + 1) % n
        return "".join(strand.letters[k] for k in ks)

    def raw_count(self, ci: int, cj: int) -> int:
        return sum(
            1
            for x in self.crossings
            if {x.s1.curve, x.s2.curve} == {ci, cj}
        )

    def algebraic(self, ci: int, cj: int) -> int:
        """Signed crossing count of curve ci over curve cj (isotopy invariant)."""
        total = 0
        for x in self.crossings:
            if x.s1.curve == ci and x.s2.curve == cj:
                total += x.sign
            elif x.s1.curve == cj and x.s2.curve == ci:
                total -= x.sign
        return total
