"""The rational-coordinate drawing, kept as a differential oracle.

This is the drawing `cbgraph.geom.Drawing` replaced: it places rational
points on the triangulation edges, draws every passage through a
triangle as a straight chord in the convex rational 4g-gon, solves
every pair of chords in a triangle by Cramer's rule and respaces the
points when it meets a degeneracy.  The chords of a triangle are
scaled to integers by the least common denominator of their
endpoints, so each pair is decided in integers and a crossing's
parameters become `Fraction`s only when the chords cross.  It accepts any number
of curves.  Tests require the integer drawing to give the same
crossings, signs and crossing orders, and use this one to draw the
three- and four-curve sets that exercise bigon-removal order.  Its
strands hold their letters as encoded text, as the integer drawing's
do.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from canonical_oracle import StepTracer
from cbgraph.geom import Crossing, Strand
from cbgraph.kernel import encode
from cbgraph.surface import Triangulation
from polygon_oracle import polygon_vertices


class DegenerateDrawing(Exception):
    """A chord hit a chord endpoint or a collinear chord; respace and retry."""


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

        # Chord k of a strand runs inside the triangle of letter k, from
        # point k (entry) to point k+1 (exit): (slot, edge, key) each.
        by_triangle = {}
        for s in self.strands:
            n = len(s)
            for k in range(n):
                lam = ord(s.letters[k])
                t, slot = tri.side_of(lam)
                lam2 = ord(s.letters[(k + 1) % n])
                t2b, slot2b = tri.side_of(tri.mate[lam2])
                if t2b != t:
                    raise RuntimeError("strand letters do not chain")
                start = slot, tri.side_edge[lam], s.keys[k]
                end = slot2b, tri.side_edge[lam2], s.keys[(k + 1) % n]
                by_triangle.setdefault(t, []).append((s, k, (start, end)))

        verts = polygon_vertices(tri.genus)
        self.crossings = []
        for t, chords in by_triangle.items():
            # Clear the triangle's denominators: its corners times their
            # common denominator, and a side point a + p(b - a) times the
            # common denominator `m` of its keys.  Each chord is then an
            # integer start point and direction, each pair is decided by
            # integer cross products, and a parameter is n / den.
            corners = (verts[0], verts[t + 1], verts[t + 2])
            d = lcm(*(x.denominator for v in corners for x in v))
            corners = [(int(x * d), int(y * d)) for x, y in corners]
            m = lcm(*(key.denominator for _, _, ends in chords for _, _, key in ends))

            def point(slot, e, key):
                (ax, ay), (bx, by) = corners[slot], corners[(slot + 1) % 3]
                pm = key.numerator * (m // key.denominator)
                if tri.sides[e][0] != (t, slot):
                    pm = m - pm
                return ax * m + pm * (bx - ax), ay * m + pm * (by - ay)

            lines = []
            for _, _, (start, end) in chords:
                (px, py), (qx, qy) = point(*start), point(*end)
                lines.append((px, py, qx - px, qy - py))
            for i, (s1, k1, _) in enumerate(chords):
                ax, ay, ux, uy = lines[i]
                for j in range(i + 1, len(chords)):
                    s2, k2, _ = chords[j]
                    if s1.curve == s2.curve:
                        continue
                    cx, cy, vx, vy = lines[j]
                    rx, ry = cx - ax, cy - ay
                    den = ux * vy - uy * vx
                    if den == 0:
                        if ux * ry - uy * rx == 0:
                            raise DegenerateDrawing
                        continue
                    # Solve a + p1*u = c + p2*v (Cramer), p1 = n1 / den.
                    sign = 1 if den > 0 else -1
                    den, n1, n2 = sign * den, sign * (rx * vy - ry * vx), sign * (rx * uy - ry * ux)
                    if n1 in (0, den) or n2 in (0, den):
                        raise DegenerateDrawing
                    if 0 < n1 < den and 0 < n2 < den:
                        self.crossings.append(
                            Crossing(s1, k1, Fraction(n1, den), s2, k2, Fraction(n2, den), sign)
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
