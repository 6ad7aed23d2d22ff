"""Exact transverse drawings of a curve pair by boundary interleaving.

Each curve is drawn in normal position: its crossing points on every
triangulation edge get distinct integer indices (the two curves stacked
in blocks per edge, components in traced order), and every passage
through a triangle is a chord between two of those boundary points.
The letters and indices come from the trace each `CurveClass` keeps
(`CurveClass.trace`), so drawing traces no curve; a strand keeps the
trace's text, decoded only into the chord arrays indexed below.
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
crossings with their chords, parameters and signs; the directed-crossing
subword between two consecutive crossings is the slice of the strand's
text between their chords.  That is everything the curve operations
(bigon reduction, twisting, surgery, neighborhoods) consume.  A crossing
holds its two strands and a strand only the indices of its crossings,
so a drawing has no reference cycle and is freed as soon as its last
reference goes, without waiting for the cyclic garbage collector.

Counts need no drawing.  Curve 0's points come first counterclockwise
on side s of triangle t iff first[3t + s], and chords cross by the
order of their ends on shared sides, so one curve's arcs at the corner
of sides s and s + 1 (family 3t + s) cross all or none of the other's.
`crossing_counts` sums F_a * F_b (arcs per family) and sign * D_a * D_b
(arcs run from s to s + 1 less those run back: trace bigram counts)
over the crossing family pairs of each triangle, kept per class as
projections of F and D in one memoised array: three dot products.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict
from functools import lru_cache, partial
from operator import add, mul, sub

from cbgraph import MEMO_ENTRIES
from cbgraph.curves import chains, translate_tables
from cbgraph.kernel import decode
from cbgraph.surface import Triangulation

# Crossings a drawing may hold.  Measured with `tracemalloc` on
# Farey-neighbour model pairs of 2.6*10^4-1.8*10^5 crossings (genus 2,
# curves of 267/432 to 699/1,131 letters), a drawing peaks at 274-330
# bytes per crossing while it sorts the strand orders (and holds 149-205
# after), so one at the bound peaks near 0.8 GB.  Drawing and then
# removing bigons peaks at 316-391 bytes per crossing, so an
# `ops.intersect` at the bound needs about 1 GB.
MAX_DRAWN_CROSSINGS = 2_500_000


class Strand:
    """One drawn component: letters, edge indices, and its crossings.

    `letters` is the component's trace text (`CurveClass.trace`), one
    code point per letter, and `keys` an `array("I")`: per letter, the
    index of its crossing point on its edge, counted across both curves
    of the drawing.  `order` is an `array("I")` of the indices in
    `Drawing.crossings` of the strand's crossings in strand order: by
    chord, then by parameter along it.
    """

    __slots__ = ("curve", "comp", "letters", "keys", "order")

    def __init__(self, curve: int, comp: int, letters, keys):
        self.curve = curve
        self.comp = comp
        self.letters = letters
        self.keys = keys
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
            if c.tri is not tri and c.tri != tri:
                raise ValueError("curve drawn on a different triangulation")
        self._build()

    def _build(self):
        tri = self.tri
        totals = [0] * tri.num_edges
        offsets = []
        for c in self.curves:
            offsets.append(totals)
            totals = list(map(add, totals, c.weights))

        # Side `slot` of a triangle holds the positions slot*width + r,
        # 0 <= r < totals[e], increasing counterclockwise.  Per letter
        # 3t + slot the point with key g on that side sits at lo + g in
        # the frame of the edge's first listed incidence (r = g) and at
        # lo - g in the other (r = totals[e] - 1 - g).
        width = max(totals) + 1
        circle = 3 * width
        first, edge = tri.first, tri.side_edge
        slots = [0, width, 2 * width] * tri.num_triangles
        lo = [base if f else base + totals[e] - 1 for base, f, e in zip(slots, first, edge)]

        # Chord k of a strand runs inside the triangle of letter k, from
        # point k (entry) to point k+1 (exit), which the mate of letter
        # k+1 names.  A curve numbers its chords strand after strand and
        # lists, by chord number, the letters naming both ends and their
        # keys.  It keeps the number of each strand's first chord and
        # per triangle, in the order the curve first visits them, its
        # chord numbers.  Curve 0's keys are its trace's position
        # arrays, shared and not copied; curve 1's are offset past them.
        tables = translate_tables(tri)
        self.strands = strands = []
        chords = []
        for ci, c in enumerate(self.curves):
            off = offsets[ci]
            own, firsts, entries, exits = [], [], [], []
            entry_keys, exit_keys = array("I"), array("I")
            buckets = defaultdict(_chord_numbers)
            for mi, (text, pos, _) in enumerate(c.trace):
                if not chains(tables, text):
                    raise RuntimeError("strand letters do not chain")
                letters = decode(text)
                keys = array("I", [off[edge[x]] + p for x, p in zip(letters, pos)]) if ci else pos
                base = len(entries)
                firsts.append(base)
                for i, t in enumerate(decode(text.translate(tables.triangle)), base):
                    buckets[t].append(i)
                entries += letters
                exits += decode((text[1:] + text[:1]).translate(tables.flip))
                entry_keys += keys
                exit_keys += keys[1:]
                exit_keys.append(keys[0])
                own.append(Strand(ci, mi, text, keys))
            strands += own
            chords.append((own, firsts, entries, exits, entry_keys, exit_keys, buckets))

        self.crossings = crossings = _cross(self.curves, chords, first, lo, circle)
        del chords  # before the sort, which peaks the drawing's memory

        # Strand order: each strand's `order` first lists the int keys
        # (k * circle + p) * n + i of its crossings and is sorted once.
        # k * circle + p orders by chord, then param, and no two
        # crossings of a strand share it; i is the crossing's index.
        n = len(crossings)
        for s in strands:
            s.order = []
        for i, x in enumerate(crossings):
            x.s1.order.append((x.k1 * circle + x.p1) * n + i)
            x.s2.order.append((x.k2 * circle + x.p2) * n + i)
        for s in strands:
            s.order.sort()
            s.order = array("I", [v % n for v in s.order])

    def strand_sequence(self, strand: Strand) -> list[Crossing]:
        """Crossings in cyclic order along the strand."""
        crossings = self.crossings
        return [crossings[i] for i in strand.order]

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


_chord_numbers = partial(array, "I")


def _cross(curves, chords, first, lo, circle) -> list[Crossing]:
    """The crossings of curve 0's chords with curve 1's: by triangle in
    the order curve 0 first visits them, then by chord of curve 0, then
    by chord of curve 1.  The point with key g named by letter x sits
    at lo[x] + g on its triangle's circle if first[x], else at lo[x] - g."""
    if len(chords) < 2:
        return []
    (own, firsts, entries, exits, entry_keys, exit_keys, buckets), second_curve = chords
    own2, firsts2, entries2, exits2, entry_keys2, exit_keys2, buckets2 = second_curve
    crossings = []
    for t, ids in buckets.items():
        ids2 = buckets2.get(t)
        if ids2 is None:
            continue
        second = []
        for j in ids2:
            x, y, g, h = entries2[j], exits2[j], entry_keys2[j], exit_keys2[j]
            c = lo[x] + g if first[x] else lo[x] - g
            second.append((j, c, lo[y] + h if first[y] else lo[y] - h))
        for i in ids:
            x, y, g, h = entries[i], exits[i], entry_keys[i], exit_keys[i]
            a = lo[x] + g if first[x] else lo[x] - g
            b = lo[y] + h if first[y] else lo[y] - h
            arc = (b - a) % circle
            for j, c, d in second:
                c_in = (c - a) % circle < arc
                if c_in == ((d - a) % circle < arc):
                    continue
                m, m2 = bisect_right(firsts, i) - 1, bisect_right(firsts2, j) - 1
                s1, k1, s2, k2 = own[m], i - firsts[m], own2[m2], j - firsts2[m2]
                if c_in:  # a, c, b, d
                    x = Crossing(s1, k1, (c - a) % circle, s2, k2, (b - c) % circle, 1)
                else:  # a, d, b, c
                    x = Crossing(s1, k1, (d - a) % circle, s2, k2, (a - c) % circle, -1)
                crossings.append(x)
            if len(crossings) > MAX_DRAWN_CROSSINGS:
                m, n = (sum(map(len, curve.texts)) for curve in curves)
                raise RuntimeError(
                    f"drawing exceeded MAX_DRAWN_CROSSINGS = {MAX_DRAWN_CROSSINGS}:"
                    f" {len(crossings)} crossings drawn between curves of"
                    f" {m} and {n} letters"
                )
    return crossings


def crossing_counts(a, b) -> tuple[int, int, int]:
    """`Drawing(tri, [a, b]).raw_count(0, 1)`, the same of [b, a], and
    `Drawing(tri, [a, b]).algebraic(0, 1)`, from the corner counts."""
    if a.tri != b.tri:
        raise ValueError("curve drawn on a different triangulation")
    u, v = _corner_vectors(a), _corner_vectors(b)
    raw = sum(map(mul, u[::4], v[2::4]))
    return raw, sum(map(mul, v[::4], u[2::4])), sum(map(mul, u[1::4], v[3::4]))


@lru_cache(maxsize=None)
def _corner_table(tri: Triangulation):
    """Per family 3t + f the bigrams of its arcs run from side f to
    f + 1 and back, and (i, j, sign) per crossing pair of families."""
    ahead, back, first = tri.ahead, tri.back, tri.first
    bigrams, pairs = [], []
    for i in range(3 * tri.num_triangles):
        t, f = i - i % 3, i % 3
        j = t + (f + 1) % 3
        assert i != ahead[i] and j != back[j]
        bigrams += (chr(i) + chr(ahead[i]), chr(j) + chr(back[j]))
        a, b = (2 * s + (not first[t + s]) for s in (f, (f + 1) % 3))
        for g in range(3):
            c, d = (2 * s + first[t + s] for s in (g, (g + 1) % 3))
            c_in = (c - a) % 6 < (b - a) % 6
            if c_in != ((d - a) % 6 < (b - a) % 6):
                pairs.append((i, t + g, 1 if c_in else -1))
    return bigrams, pairs


@lru_cache(maxsize=MEMO_ENTRIES)
def _corner_vectors(c) -> array:
    """F, D, P and Q of each family of a class, interleaved in one `array("q")`."""
    bigrams, pairs = _corner_table(c.tri)
    # Cycles wrapped and joined by a code point that is no letter.
    text = chr(len(bigrams)).join(t + t[:1] for t, _, _ in c.trace)
    counts = list(map(text.count, bigrams))
    arcs = list(map(add, counts[::2], counts[1::2]))
    net = list(map(sub, counts[::2], counts[1::2]))
    over, signed = [0] * len(arcs), [0] * len(arcs)
    for i, j, sign in pairs:
        over[i] += arcs[j]
        signed[i] += sign * net[j]
    return array("q", [x for fdpq in zip(arcs, net, over, signed) for x in fdpq])
