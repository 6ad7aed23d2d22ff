"""Brute-force slope oracles for the tests.

The lattice-counting intersection oracles are re-exported from
`cbgraph.oracles`, which the suite runner shares.  The Farey-distance
oracles live here: a breadth-first search over the slopes of bounded
height and a descent through Stern-Brocot parents, against which
`farey.farey_distance` is checked, and the scan of every slope of a
height that `farey.once_intersectors` replaced by a solve.  No suite runs
them, so they are not part of the package.
"""

from collections import deque
from functools import lru_cache

from cbgraph.farey import ArcSlope, Slope, enumerate_slopes, intersect_ca
from cbgraph.oracles import lattice_aa, lattice_ca, lattice_cc  # noqa: F401


_adjacency_cache: dict[int, dict[Slope, list[Slope]]] = {}
_bfs_cache: dict[tuple[Slope, int], dict[Slope, int]] = {}
_slopes_cache: dict[int, frozenset[Slope]] = {}


def scan_once_intersectors(a: Slope, beta: ArcSlope, max_height: int) -> set[Slope]:
    """`farey.once_intersectors` by filtering every slope of the height,
    each height enumerated once per process."""
    if intersect_ca(a, beta) == 0:
        raise ValueError("normalize so that the arc crosses a")
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    universe = _slopes_cache.get(max_height)
    if universe is None:
        universe = _slopes_cache[max_height] = frozenset(enumerate_slopes(max_height))
    # The two determinants of intersect_cc(a, c) and intersect_ca(c, beta),
    # over the slopes of this height.
    ap, aq, bp, bq = a.p, a.q, beta.p, beta.q
    return {
        c
        for c in universe
        if abs(ap * c.q - aq * c.p) == 1 and abs(c.p * bq - c.q * bp) <= 1
    }


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


@lru_cache(maxsize=None)
def descent_dist_to_infinity(p: int, q: int) -> int:
    """Distance from p/q to 1/0 by descending through Stern-Brocot parents:
    some geodesic to infinity never increases the denominator."""
    if q == 0:
        return 0
    if q == 1:
        return 1
    best = None
    for r, s in _parents(p, q):
        d = descent_dist_to_infinity(r, s)
        if best is None or d < best:
            best = d
    assert best is not None
    return best + 1


def _parents(p: int, q: int):
    # The two Farey neighbors of p/q with strictly smaller denominator.
    # r/s is a neighbor iff |p*s - q*r| == 1; for 0 < s < q there are
    # exactly two, one for each sign.
    for sign in (1, -1):
        # Solve p*s - q*r = sign with 0 < s < q.
        s = pow(p % q, -1, q) * (sign % q) % q
        if s == 0:
            s = q
        r = (p * s - sign) // q
        if 0 < s < q:
            yield r, s

