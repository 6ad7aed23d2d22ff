"""The rational polygon geometry, kept as a differential oracle.

`cbgraph.polygon.curve_from_chords` used to place the 4g-gon's vertices
at rational points of the unit circle and double-check, with exact
`Fraction` predicates, which fan diagonals each chord crosses.  The
library now reads the diagonals off the two sides alone (the sector
rule); tests require the predicates to hit exactly those diagonals, in
the same order.
"""

from __future__ import annotations

from fractions import Fraction


def polygon_vertices(genus: int) -> list[tuple[Fraction, Fraction]]:
    """Rational points on the unit circle in convex ccw position."""
    m = 4 * genus
    out = []
    for k in range(m):
        phi = Fraction(2 * k + 1, m) - 1
        u = phi / (1 - phi * phi)
        d = 1 + u * u
        out.append(((1 - u * u) / d, 2 * u / d))
    return out


def _side_point(verts, j: int, t: Fraction):
    m = len(verts)
    a, b = verts[j], verts[(j + 1) % m]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segment_param(p, q, a, b):
    """Parameter along pq of its crossing with ab, or None."""
    d1 = _cross(p, q, a)
    d2 = _cross(p, q, b)
    d3 = _cross(a, b, p)
    d4 = _cross(a, b, q)
    if 0 in (d1, d2, d3, d4):
        raise ValueError("degenerate chord touches a diagonal endpointwise")
    if (d1 > 0) == (d2 > 0) or (d3 > 0) == (d4 > 0):
        return None
    return d3 / (d3 - d4)


def chord_diagonals(genus: int, p: int, s, q: int, t) -> list[int]:
    """Fan diagonals (by far vertex) met by the chord from side p at
    parameter s to side q at parameter t, in order along the chord."""
    verts = polygon_vertices(genus)
    start = _side_point(verts, p, Fraction(s))
    end = _side_point(verts, q, Fraction(t))
    hit = []
    for d in range(2, 4 * genus - 1):
        at = _segment_param(start, end, verts[0], verts[d])
        if at is not None:
            hit.append((at, d))
    return [d for _, d in sorted(hit)]
