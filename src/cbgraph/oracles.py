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


def _count_strict(lo_num: int, hi_num: int, den: int) -> int:
    """Integers k with lo_num/den < k < hi_num/den, endpoints non-integer."""
    if hi_num < lo_num:
        lo_num, hi_num = hi_num, lo_num
    return hi_num // den - lo_num // den


def lattice_cc(a: Slope, b: Slope) -> int:
    """Crossings of the a-line and the b-line on the unit-square torus.

    The a-curve is one period of a straight line; lifts of the b-curve are
    the parallel lines {x*s - y*r = c + k}.  Crossings are the integer
    levels swept between the segment's endpoint values; the generic
    offsets 1/97 and 1/89 keep both endpoints off the lattice, so the
    count is an exact integer-interval count.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    det = p * s - q * r
    # Endpoint values of x*s - y*r minus the line offset, over den 97*89.
    den = 97 * 89
    lo = 89 - 97
    hi = lo + det * den
    return _count_strict(lo, hi, den)


def lattice_ca(c: Slope, arc: ArcSlope) -> int:
    """Crossings of the c-line with the straight arc between punctures."""
    # The arc lifts to the segment (0,0)-(p,q); the curve's lifts are the
    # lines {x*n - y*m = 1/97 + k}.
    p, q = arc.p, arc.q
    m, n = c.p, c.q
    det = p * n - q * m
    return _count_strict(-1, det * 97 - 1, 97)


def lattice_aa(a: ArcSlope, b: ArcSlope) -> int:
    """Interior crossings of the straight arcs on the punctured torus.

    Both arcs are straight segments between punctures; segment-vs-translate
    counting realizes the minimal position.  The a-arc runs from (0, 0)
    to (p, q), the translate of the b-arc from m = (mx, my) to
    m + (r, s), and they cross properly exactly when each segment has
    the two ends of the other strictly on opposite sides.  Those four
    orientations are linear forms in m, two apart by d = ps - qr.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    d = p * s - q * r
    lo_x, hi_x = min(0, p) - abs(r) - 1, max(0, p) + abs(r) + 1
    lo_y, hi_y = min(0, q) - abs(s) - 1, max(0, q) + abs(s) + 1
    count = 0
    for mx in range(lo_x, hi_x + 1):
        for my in range(lo_y, hi_y + 1):
            o1 = p * my - q * mx  # b's start against the a-arc
            o3 = s * mx - r * my  # a's start against the b-arc
            # o2 = o1 + d and o4 = o3 - d are the two ends; a product
            # below zero means opposite sides with neither end on the line
            # (so the translate equal to the a-arc, o1 = d = 0, never counts).
            if o1 * (o1 + d) < 0 and o3 * (o3 - d) < 0:
                count += 1
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
