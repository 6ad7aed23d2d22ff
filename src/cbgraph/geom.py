"""Exact transverse drawings of a curve pair by boundary interleaving.

Each curve is drawn in normal position: its crossing points on every
triangulation edge get distinct integer indices (the two curves stacked
in blocks per edge, components in traced order), and every passage
through a triangle is a chord between two of those boundary points.
Reading the three sides of a triangle counterclockwise turns every
point into an integer position on a circle, and all the drawing needs
is combinatorial in those positions:

- Interleaving.  Chords a->b of the first curve and c->d of the second
  cross exactly when one of c, d lies in the open counterclockwise arc
  (a, b) and the other does not, as straight chords do in a convex
  triangle.
- Sign.  The crossing is +1 when c lies in that arc (counterclockwise
  order a, c, b, d), which is the orientation of (a->b, c->d) in the
  surface orientation, and -1 otherwise.
- Order.  Chords of one curve are pairwise disjoint, so the chords of
  the other curve meeting a->b cross it in the order of their endpoints
  in the arc (a, b).  A crossing's parameter along a->b is therefore the
  counterclockwise distance from a to that endpoint.

The drawing records, per component strand, the cyclic sequence of
crossings with parameters, signs, and the directed-crossing subwords
between consecutive crossings, which is everything the curve operations
(bigon reduction, twisting, surgery, neighborhoods) consume.  A crossing
holds its two strands and a strand only the indices of its crossings,
so a drawing has no reference cycle and is freed as soon as its last
reference goes, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from itertools import count, repeat

from cbgraph.curves import _arc_tables, _Tracer
from cbgraph.surface import Triangulation

# Crossings a drawing may hold.  Measured with `tracemalloc` on
# Farey-neighbour model pairs of 10^4-7*10^4 crossings, a drawing peaks
# at 308-332 bytes per crossing while it sorts the strand orders (and
# holds 173-188 after), so one at the bound peaks near 0.85 GB.
# Drawing and then removing bigons peaks at 700-800 bytes per crossing,
# so an `ops.intersect` at the bound needs about 2 GB.
MAX_DRAWN_CROSSINGS = 2_500_000


class Strand:
    """One drawn component: letters, edge indices, and its crossings.

    `order` lists the indices in `Drawing.crossings` of the strand's
    crossings in strand order: by chord, then by parameter along it.
    """

    __slots__ = ("curve", "comp", "letters", "keys", "order")

    def __init__(self, curve: int, comp: int, letters, keys):
        self.curve = curve
        self.comp = comp
        self.letters = tuple(letters)
        self.keys = list(keys)
        self.order = None  # filled by Drawing

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"Strand(curve={self.curve}, comp={self.comp}, len={len(self.letters)})"


class Crossing:
    """A transversal intersection of two chords from different curves.

    `sign` is the orientation of (direction of s1's chord, direction of
    s2's chord) in the surface orientation.
    """

    __slots__ = ("s1", "k1", "p1", "s2", "k2", "p2", "sign", "alive")

    def __init__(self, s1, k1, p1, s2, k2, p2, sign):
        self.s1, self.k1, self.p1 = s1, k1, p1
        self.s2, self.k2, self.p2 = s2, k2, p2
        self.sign = sign
        self.alive = True

    def strand_data(self, strand):
        """(chord index, param, other strand, crossing sign from this side)."""
        if strand is self.s1:
            return self.k1, self.p1, self.s2, self.sign
        if strand is self.s2:
            return self.k2, self.p2, self.s1, -self.sign
        raise ValueError("crossing does not involve this strand")


class Drawing:
    """Simultaneous exact drawing of one or two multicurves."""

    def __init__(self, tri: Triangulation, curves):
        self.tri = tri
        self.curves = list(curves)
        if len(self.curves) > 2:
            raise ValueError("a drawing holds at most two curves")
        for c in self.curves:
            if c.tri != tri:
                raise ValueError("curve drawn on a different triangulation")
        self._build()

    def _build(self):
        tri = self.tri
        totals = [0] * tri.num_edges
        offsets = []
        for c in self.curves:
            offsets.append(tuple(totals))
            totals = [a + b for a, b in zip(totals, c.weights)]

        self.strands = []
        for ci, c in enumerate(self.curves):
            for mi, cycle in enumerate(_Tracer(tri, c.weights).components()):
                letters = [lam for lam, _ in cycle]
                keys = [offsets[ci][tri.side_edge[lam]] + pos for lam, pos in cycle]
                self.strands.append(Strand(ci, mi, letters, keys))

        # Side `slot` of a triangle holds the positions slot*width + r,
        # 0 <= r < totals[e], increasing counterclockwise.  Per letter
        # 3t + slot the point with key g on that side sits at
        # lo + sgn * g: r = g in the frame of the edge's first listed
        # incidence, totals[e] - 1 - g in the other.
        width = max(totals) + 1
        circle = 3 * width
        _, _, in_first = _arc_tables(tri)
        lo, sgn = [], []
        for x, e in enumerate(tri.side_edge):
            base = x % 3 * width
            lo.append(base if in_first[x] else base + totals[e] - 1)
            sgn.append(1 if in_first[x] else -1)
        mate = tri.mate

        # Chord k of a strand runs inside the triangle of letter k, from
        # point k (entry) to point k+1 (exit), which the mate of letter
        # k+1 names; chords are kept per triangle in first-visit order,
        # split by curve.
        by_triangle = {}
        for s in self.strands:
            letters, keys = s.letters, s.keys
            exits = [mate[y] for y in letters[1:] + letters[:1]]
            triangles = [x // 3 for x in letters]
            if triangles != [y // 3 for y in exits]:
                raise RuntimeError("strand letters do not chain")
            chords = zip(
                repeat(s),
                count(),
                [lo[x] + sgn[x] * g for x, g in zip(letters, keys)],
                [lo[y] + sgn[y] * h for y, h in zip(exits, keys[1:] + keys[:1])],
            )
            for t, chord in zip(triangles, chords):
                split = by_triangle.get(t)
                if split is None:
                    split = by_triangle[t] = ([], [])
                split[s.curve].append(chord)

        self.crossings = crossings = []
        for first, second in by_triangle.values():
            if not second:
                continue
            for s1, k1, a, b in first:
                arc = (b - a) % circle
                for s2, k2, c, d in second:
                    c_in = (c - a) % circle < arc
                    if c_in == ((d - a) % circle < arc):
                        continue
                    if c_in:  # a, c, b, d
                        x = Crossing(s1, k1, (c - a) % circle, s2, k2, (b - c) % circle, 1)
                    else:  # a, d, b, c
                        x = Crossing(s1, k1, (d - a) % circle, s2, k2, (a - c) % circle, -1)
                    crossings.append(x)
                if len(crossings) > MAX_DRAWN_CROSSINGS:
                    m, n = (sum(map(len, curve.words)) for curve in self.curves)
                    raise RuntimeError(
                        f"drawing exceeded MAX_DRAWN_CROSSINGS = {MAX_DRAWN_CROSSINGS}:"
                        f" {len(crossings)} crossings drawn between curves of"
                        f" {m} and {n} letters"
                    )
        del by_triangle  # before the sort, which peaks the drawing's memory

        # Strand order: one sort per strand by (chord, param, index).
        rows = {s: [] for s in self.strands}
        for i, x in enumerate(crossings):
            rows[x.s1].append((x.k1, x.p1, i))
            rows[x.s2].append((x.k2, x.p2, i))
        for s, row in rows.items():
            row.sort()
            s.order = [i for _, _, i in row]

    def strand_sequence(self, strand: Strand) -> list[Crossing]:
        """Crossings in cyclic order along the strand."""
        crossings = self.crossings
        return [crossings[i] for i in strand.order]

    def arc_letters(self, strand: Strand, x: Crossing, y: Crossing):
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
            return ()
        ks = []
        k = (kx + 1) % n
        while True:
            ks.append(k)
            if k == ky:
                break
            k = (k + 1) % n
        return tuple(strand.letters[k] for k in ks)

    def raw_count(self, ci: int, cj: int) -> int:
        """Drawn crossings between curves ci and cj (none when ci == cj).

        `_build` crosses only curve 0 with curve 1, so every crossing
        joins the two curves of a pair.
        """
        return len(self.crossings) if ci != cj else 0

    def algebraic(self, ci: int, cj: int) -> int:
        """Signed crossing count of curve ci over curve cj (isotopy invariant)."""
        if ci == cj:
            return 0
        # Every crossing has curve 0 on s1 and curve 1 on s2.
        total = sum(x.sign for x in self.crossings)
        return total if ci == 0 else -total
