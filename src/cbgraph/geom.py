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

A crossing is its two halves, one on each strand.  The drawing numbers
them once, in one sort per curve of their places along it (chord, then
parameter), and keeps per half only integers: its crossing, the other
half, its chord, its strand and its sign (`Drawing`).  The
directed-crossing subword between two consecutive halves is the slice
of the strand's text between their chords.  That is everything the
curve operations (bigon reduction, twisting, surgery, neighborhoods)
consume.  A `Crossing` keeps only `alive`, which bigon removal clears,
so a drawing has no reference cycle and is freed as soon as its last
reference goes, without waiting for the cyclic garbage collector.

Counts need no drawing.  Curve 0's points come first counterclockwise
on side s of triangle t iff first[3t + s], and chords cross by the
order of their ends on shared sides, so one curve's arcs at the corner
of sides s and s + 1 (family 3t + s) cross all or none of the other's.
`crossing_counts` sums F_a * F_b (arcs per family) and sign * D_a * D_b
(arcs run from s to s + 1 less those run back: trace bigram counts)
over the crossing family pairs of each triangle, kept per class as
projections of F and D in one memoised array: three dot products.  F
is the class's corner count (`curves.corner_counts`), and D = 2A - F
for A the arcs run from s to s + 1, one trace bigram count per family.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache, partial
from operator import add, mul

from cbgraph import MEMO_ENTRIES
from cbgraph.curves import chains, corner_counts, translate_tables
from cbgraph.kernel import decode
from cbgraph.surface import Triangulation

# Crossings a drawing may hold.  Measured with `tracemalloc` on
# Farey-neighbour model pairs of 9.8*10^3-6.7*10^4 crossings (genus 2,
# curves of 165/267 to 432/699 letters), a drawing peaks at 155 bytes
# per crossing while it numbers the halves (and holds 85 after), and
# with its `Reduced` it holds 101, so an `ops.intersect` at the bound
# needs about 0.4 GB.
MAX_DRAWN_CROSSINGS = 2_500_000


class Strand:
    """One drawn component: letters and edge indices.

    `letters` is the component's trace text (`CurveClass.trace`), one
    code point per letter, and `keys` an `array("I")`: per letter, the
    index of its crossing point on its edge, counted across both curves
    of the drawing.
    """

    __slots__ = ("curve", "comp", "letters", "keys")

    def __init__(self, curve: int, comp: int, letters, keys):
        self.curve = curve
        self.comp = comp
        self.letters = letters
        self.keys = keys

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"Strand(curve={self.curve}, comp={self.comp}, len={len(self.letters)})"


class Crossing:
    """A transversal intersection of two chords from different curves.

    Its two halves and their data are the drawing's arrays; the crossing
    keeps only `alive`, which bigon removal (`position.Reduced`) clears.
    """

    __slots__ = ("alive",)

    def __init__(self):
        self.alive = True


class Drawing:
    """Simultaneous exact drawing of one or two multicurves.

    `strands` lists curve 0's strands, then curve 1's, and `crossings`
    one `Crossing` per crossing.  A half is a crossing seen from one of
    its two strands.  Halves are numbered strand after strand and, along
    a strand, by chord and then by parameter, so curve 0's halves are
    the first `len(crossings)`: strand m's are `firsts[m]` to
    `firsts[m + 1] - 1`.  Per half h, `cross[h]` is the index of its
    crossing, `other[h]` the crossing's half on the other strand,
    `strand_of[h]` its strand, `chord[h]` the chord of that strand it
    lies on, and `positive[h]` whether the crossing is positive seen
    from that strand: (its chord, the other's chord) has the surface
    orientation.
    """

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
        # keys.  It keeps the number of each strand's first chord, and
        # its chord count last, and per triangle, in the order the curve
        # first visits them, its chord numbers.  Curve 0's keys are its
        # trace's position arrays, shared and not copied; curve 1's are
        # offset past them.
        tables = translate_tables(tri)
        self.strands = strands = []
        chords, bases = [], []
        for ci, c in enumerate(self.curves):
            off = offsets[ci]
            starts, entries, exits = [], [], []
            entry_keys, exit_keys = array("I"), array("I")
            buckets = defaultdict(_chord_numbers)
            for mi, (text, pos, _) in enumerate(c.trace):
                if not chains(tables, text):
                    raise RuntimeError("strand letters do not chain")
                letters = decode(text)
                keys = array("I", [off[edge[x]] + p for x, p in zip(letters, pos)]) if ci else pos
                base = len(entries)
                starts.append(base)
                for i, t in enumerate(decode(text.translate(tables.triangle)), base):
                    buckets[t].append(i)
                entries += letters
                exits += decode((text[1:] + text[:1]).translate(tables.flip))
                entry_keys += keys
                exit_keys += keys[1:]
                exit_keys.append(keys[0])
                strands.append(Strand(ci, mi, text, keys))
            starts.append(len(entries))
            chords.append((entries, exits, entry_keys, exit_keys, buckets))
            bases.append(starts)

        places, signs = _cross(self.curves, chords, first, lo, circle)
        del chords

        # The one sort per curve: its halves in the order of their places
        # i * circle + p, by chord number i, then by parameter p.  No two
        # halves of a curve share a place.  A strand's halves are a run
        # of that order, ended where its chord numbers end.
        n = len(signs)
        self.cross = cross = array("I")
        self.chord = chord = array("I")
        self.strand_of = strand_of = array("I")
        self.firsts = firsts = [0]
        for place, starts in zip(places, bases):
            order = sorted(range(n), key=place.__getitem__)
            cross += array("I", order)
            done = 0
            for start, end in zip(starts, starts[1:]):
                upto = bisect_left(order, end * circle, done, key=place.__getitem__)
                chord += array("I", [place[x] // circle - start for x in order[done:upto]])
                strand_of += array("I", [len(firsts) - 1]) * (upto - done)
                firsts.append(firsts[-1] + upto - done)
                done = upto
        del order

        # Pair the halves: per crossing its half on curve 0, read at its
        # half on curve 1; the array is then overwritten by the inverse.
        half = array("I", bytes(4 * n))
        for h, x in enumerate(cross[:n]):
            half[x] = h
        across = array("I", [half[x] for x in cross[n:]])
        self.other = other = half
        for h, o in enumerate(across, n):
            other[o] = h
        other += across
        self.positive = positive = bytearray([signs[x] for x in cross])
        positive[n:] = positive[n:].translate(_OPPOSITE)
        self.crossings = [Crossing() for _ in range(n)]

    def crossings_along(self, m: int):
        """Per half of strand m, in strand order: its chord, the other
        strand's letters and chord there, and whether it is positive."""
        strands, other, chord, positive, strand_of = (
            self.strands, self.other, self.chord, self.positive, self.strand_of
        )
        for h in range(self.firsts[m], self.firsts[m + 1]):
            o = other[h]
            yield chord[h], strands[strand_of[o]].letters, chord[o], positive[h]

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
        # The signs of curve 0's halves, the first n.
        n = len(self.crossings)
        total = 2 * self.positive.count(1, 0, n) - n
        return total if ci == 0 else -total


_chord_numbers = partial(array, "I")
_OPPOSITE = bytes.maketrans(b"\0\1", b"\1\0")


def _cross(curves, chords, first, lo, circle):
    """The places of the crossings of curve 0's chords with curve 1's,
    per curve an `array("Q")` of i * circle + p (i the curve's chord
    number, p the parameter along the chord), and whether each is
    positive from curve 0's side, a `bytearray`.  Crossings run by
    triangle in the order curve 0 first visits them, then by chord of
    curve 0, then by chord of curve 1.  The point with key g named by
    letter x sits at lo[x] + g on its triangle's circle if first[x],
    else at lo[x] - g."""
    along, across, signs = array("Q"), array("Q"), bytearray()
    if len(chords) < 2:
        return [along], signs
    (entries, exits, entry_keys, exit_keys, buckets), second_curve = chords
    entries2, exits2, entry_keys2, exit_keys2, buckets2 = second_curve
    for t, ids in buckets.items():
        ids2 = buckets2.get(t)
        if ids2 is None:
            continue
        second = []
        for j in ids2:
            x, y, g, h = entries2[j], exits2[j], entry_keys2[j], exit_keys2[j]
            c = lo[x] + g if first[x] else lo[x] - g
            second.append((j * circle, c, lo[y] + h if first[y] else lo[y] - h))
        for i in ids:
            x, y, g, h = entries[i], exits[i], entry_keys[i], exit_keys[i]
            a = lo[x] + g if first[x] else lo[x] - g
            b = lo[y] + h if first[y] else lo[y] - h
            arc = (b - a) % circle
            place = i * circle
            for place2, c, d in second:
                c_in = (c - a) % circle < arc
                if c_in == ((d - a) % circle < arc):
                    continue
                if c_in:  # a, c, b, d
                    along.append(place + (c - a) % circle)
                    across.append(place2 + (b - c) % circle)
                else:  # a, d, b, c
                    along.append(place + (d - a) % circle)
                    across.append(place2 + (a - c) % circle)
                signs.append(c_in)
            if len(signs) > MAX_DRAWN_CROSSINGS:
                m, n = (sum(map(len, curve.texts)) for curve in curves)
                raise RuntimeError(
                    f"drawing exceeded MAX_DRAWN_CROSSINGS = {MAX_DRAWN_CROSSINGS}:"
                    f" {len(signs)} crossings drawn between curves of"
                    f" {m} and {n} letters"
                )
    return [along, across], signs


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
    """Per family 3t + f the bigram of its arcs run from side f to
    f + 1, and (i, j, sign) per crossing pair of families."""
    ahead, first = tri.ahead, tri.first
    bigrams, pairs = [], []
    for i in range(3 * tri.num_triangles):
        t, f = i - i % 3, i % 3
        assert i != ahead[i]
        bigrams.append(chr(i) + chr(ahead[i]))
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
    # F of family 3t + f is the arcs at corner f + 1 of triangle t; A,
    # those run from side f to f + 1, are counted in the cycles wrapped
    # and joined by a code point that is no letter, and D = 2A - F.
    arcs = [n for corners in corner_counts(c.tri, c.weights) for n in corners[1:] + corners[:1]]
    text = chr(len(bigrams)).join(t + t[:1] for t, _, _ in c.trace)
    net = [2 * x - f for x, f in zip(map(text.count, bigrams), arcs)]
    over, signed = [0] * len(arcs), [0] * len(arcs)
    for i, j, sign in pairs:
        over[i] += arcs[j]
        signed[i] += sign * net[j]
    return array("q", [x for fdpq in zip(arcs, net, over, signed) for x in fdpq])
