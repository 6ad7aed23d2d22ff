"""Independent brute-force oracles used by the verification suites.

These deliberately avoid the formulas under test: torus intersection
numbers are obtained by counting lattice lines crossed on the unit-square
model, Farey distances by breadth-first search over bounded-height slopes,
and compression-body heights by breadth-first search over the move graph.
"""

from __future__ import annotations

from collections import deque

from cbgraph.cb import CBType, enumerate_types, minimal_moves, trivial_type
from cbgraph.farey import ArcSlope, Slope, enumerate_slopes

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


_adjacency_cache: dict[int, dict[Slope, list[Slope]]] = {}
_bfs_cache: dict[tuple[Slope, int], dict[Slope, int]] = {}


def _adjacency(max_height: int) -> dict[Slope, list[Slope]]:
    adj = _adjacency_cache.get(max_height)
    if adj is None:
        universe = enumerate_slopes(max_height)
        adj = {s: [] for s in universe}
        for s in universe:
            for t in _neighbors_in(s, max_height):
                if t in adj:
                    adj[s].append(t)
        _adjacency_cache[max_height] = adj
    return adj


def _neighbors_in(s: Slope, max_height: int):
    # All r/q2 with |p*q2 - q*r| == 1 and bounded height, found by solving
    # the determinant equation one denominator at a time.
    p, q = s.p, s.q
    if q == 0:
        for n in range(-max_height, max_height + 1):
            yield Slope(n, 1)
        return
    if q == 1:
        yield Slope(1, 0)
    for q2 in range(1, max_height + 1):
        for sign in (1, -1):
            num = p * q2 - sign
            if num % q == 0:
                r = num // q
                if abs(r) <= max_height:
                    yield Slope(r, q2)


def bfs_farey_distance(a: Slope, b: Slope, max_height: int = 64) -> int:
    """Graph distance via BFS over the slopes of bounded height."""
    if a == b:
        return 0
    key = (a, max_height)
    dist = _bfs_cache.get(key)
    if dist is None:
        adj = _adjacency(max_height)
        if a not in adj:
            raise ValueError(f"{a} outside height bound {max_height}")
        dist = {a: 0}
        queue = deque([a])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        _bfs_cache[key] = dist
    if b not in dist:
        raise RuntimeError(f"no path from {a} to {b} within height {max_height}")
    return dist[b]


_level_cache: dict[int, dict[CBType, int]] = {}


def _levels(g: int) -> dict[CBType, int]:
    levels = _level_cache.get(g)
    if levels is None:
        start = trivial_type(g)
        levels = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in minimal_moves(cur):
                if nxt not in levels:
                    levels[nxt] = levels[cur] + 1
                    queue.append(nxt)
        _level_cache[g] = levels
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
