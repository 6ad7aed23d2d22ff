"""Independent brute-force oracles used by the verification suites.

These deliberately avoid the formulas under test: torus intersection
numbers are obtained by counting lattice lines crossed on the unit-square
model, and compression-body heights by breadth-first search over the
move graph (its levels are built once per genus).  The Farey-distance
oracle, a breadth-first search over bounded-height slopes that no suite
runs, lives with the tests in `tests/oracles.py`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from cbgraph.cb import CBType, enumerate_types, minimal_moves, trivial_type
from cbgraph.farey import ArcSlope, Slope


def lattice_cc(a: Slope, b: Slope) -> int:
    """Crossings of the a-line and the b-line on the unit-square torus.

    The a-curve is one period of a straight line; lifts of the b-curve are
    the parallel lines {x*s - y*r = c + k}.  Crossings are the integer
    levels swept between the segment's endpoint values; the generic
    offsets 1/97 and 1/89 keep both endpoints off the lattice, so the
    count is an exact integer-interval count: the integers strictly
    between lo/den and hi/den, neither of them an integer.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    det = p * s - q * r
    # Endpoint values of x*s - y*r minus the line offset, over den 97*89.
    den = 97 * 89
    lo = 89 - 97
    hi = lo + det * den
    if hi < lo:
        lo, hi = hi, lo
    return hi // den - lo // den


def lattice_ca(c: Slope, arc: ArcSlope) -> int:
    """Crossings of the c-line with the straight arc between punctures."""
    # The arc lifts to the segment (0,0)-(p,q); the curve's lifts are the
    # lines {x*n - y*m = 1/97 + k}: count the integers strictly between
    # -1/97 and (det*97 - 1)/97.
    p, q = arc.p, arc.q
    m, n = c.p, c.q
    lo, hi = -1, (p * n - q * m) * 97 - 1
    if hi < lo:
        lo, hi = hi, lo
    return hi // 97 - lo // 97


def lattice_aa(a: ArcSlope, b: ArcSlope) -> int:
    """Interior crossings of the straight arcs on the punctured torus.

    Both arcs are straight segments between punctures; segment-vs-translate
    counting realizes the minimal position.  The a-arc runs from (0, 0)
    to (p, q), the translate of the b-arc from m = (mx, my) to
    m + (r, s), and they cross properly exactly when each segment has
    the two ends of the other strictly on opposite sides.  Those four
    orientations are linear forms in m, two apart by d = ps - qr: with
    o1 = p*my - q*mx (b's start against the a-arc) and o3 = s*mx - r*my
    (a's start against the b-arc), the ends are o1 + d and o3 - d, and
    the condition is that o1 lies strictly between -d and 0 and o3
    strictly between 0 and d.  With d = 0 nothing counts (so the
    translate equal to the a-arc never does).  For each column mx both
    conditions are open intervals of my, or hold for every my or for
    none when the coefficient of my is 0, so the translates of the
    column that count are the integers of the box in both intervals.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    d = p * s - q * r
    if d == 0:
        return 0
    lo_x, hi_x = min(0, p) - abs(r) - 1, max(0, p) + abs(r) + 1
    lo_y, hi_y = min(0, q) - abs(s) - 1, max(0, q) + abs(s) + 1
    # Each condition as c*my + kc*mx strictly between low and high, c >= 0.
    forms = []
    for c, kc, low, high in ((p, -q, min(0, -d), max(0, -d)), (-r, s, min(0, d), max(0, d))):
        forms.append((c, kc, low, high) if c >= 0 else (-c, -kc, -high, -low))
    count = 0
    for mx in range(lo_x, hi_x + 1):
        lo, hi = lo_y, hi_y
        for c, kc, low, high in forms:
            k = kc * mx
            if c:
                lo = max(lo, (low - k) // c + 1)
                hi = min(hi, (high - k + c - 1) // c - 1)
            elif not low < k < high:
                hi = lo - 1
        if hi >= lo:
            count += hi - lo + 1
    return count


@lru_cache(maxsize=None)
def _levels(g: int) -> dict[CBType, int]:
    start = trivial_type(g)
    levels = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in minimal_moves(cur):
            if nxt not in levels:
                levels[nxt] = levels[cur] + 1
                queue.append(nxt)
    return levels


def bfs_height(t: CBType) -> int:
    """Number of moves from the trivial type to t, found by BFS."""
    levels = _levels(t.exterior_genus)
    if t not in levels:
        raise ValueError(f"{t} unreachable from the trivial type")
    return levels[t]


def scan_types_by_height(g: int, h: int) -> set[CBType]:
    """All types with exterior genus g at BFS level h."""
    return {t for t in enumerate_types(g) if bfs_height(t) == h}
