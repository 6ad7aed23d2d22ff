"""Exact slope arithmetic in a once-punctured torus and the Farey graph.

Curves and properly embedded arcs in a once-punctured torus are labelled by
extended rationals p/q.  Everything here is integer arithmetic: intersection
numbers are determinants, Farey adjacency is determinant one, and distances
are computed by a parent-descent recursion that is validated against BFS in
the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator

from cbgraph import MEMO_ENTRIES


class Slope:
    """A reduced extended rational p/q labelling a curve on the torus.

    Normalization: gcd(|p|, |q|) == 1, q >= 0, and the slope at infinity is
    stored as 1/0.  Two slopes are equal iff their reduced fields are equal.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        self.p = p
        self.q = q

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "p/q" (also accepts a bare integer "p")."""
        s = text.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            p, q = int(num), int(den)
        else:
            p, q = int(s), 1
        if gcd(abs(p), abs(q)) != 1:
            raise ValueError(f"unreduced slope {text!r}")
        return cls(p, q)

    def __repr__(self) -> str:
        return f"{self.p}/{self.q}"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.p, self.q))

    def __lt__(self, other: "Slope") -> bool:
        # Arbitrary total order, used only for deterministic output.
        return (self.q, self.p) < (other.q, other.p)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0


class ArcSlope(Slope):
    """The p/q-arc: the unique properly embedded arc disjoint from the
    p/q-curve.  Same normalization as Slope."""

    __slots__ = ()


def _det(p1: int, q1: int, p2: int, q2: int) -> int:
    return abs(p1 * q2 - q1 * p2)


def intersect_cc(a: Slope, b: Slope) -> int:
    """Geometric intersection number of the a-curve and the b-curve."""
    return _det(a.p, a.q, b.p, b.q)


def intersect_ca(c: Slope, a: ArcSlope) -> int:
    """Geometric intersection number of the c-curve and the a-arc."""
    return _det(c.p, c.q, a.p, a.q)


def intersect_aa(a: ArcSlope, b: ArcSlope) -> int:
    """Geometric intersection number of the a-arc and the b-arc.

    One crossing fewer than the determinant: the two arcs can always trade
    a crossing for a trip around the puncture.
    """
    return max(_det(a.p, a.q, b.p, b.q) - 1, 0)


def farey_adjacent(a: Slope, b: Slope) -> bool:
    """Whether a and b span an edge of the Farey graph."""
    return intersect_cc(a, b) == 1


@lru_cache(maxsize=None)
def _dist_to_infinity(p: int, q: int) -> int:
    # Distance from p/q to 1/0 by descending through Stern-Brocot parents:
    # some geodesic to infinity never increases the denominator.
    if q == 0:
        return 0
    if q == 1:
        return 1
    best = None
    for r, s in _parents(p, q):
        d = _dist_to_infinity(r, s)
        if best is None or d < best:
            best = d
    assert best is not None
    return best + 1


def _parents(p: int, q: int) -> Iterator[tuple[int, int]]:
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


def farey_distance(a: Slope, b: Slope) -> int:
    """Graph distance between two slopes in the Farey graph."""
    if a == b:
        return 0
    # Move a to 1/0 by an integer matrix of determinant one, then descend.
    p, q = a.p, a.q
    if q == 0:
        m = (1, 0, 0, 1)
    else:
        # r, s with p*s - q*r = 1; the matrix [[s, -r], [-q, p]] sends p/q
        # to 1/0 and acts on the Farey graph as a graph automorphism.
        s = pow(p % q, -1, q) if q > 1 else 0
        if q == 1:
            s, r = 0, -1
        else:
            r = (p * s - 1) // q
        m = (s, -r, -q, p)
    bp = m[0] * b.p + m[1] * b.q
    bq = m[2] * b.p + m[3] * b.q
    img = Slope(bp, bq)
    return _dist_to_infinity(img.p, img.q)


def apply_sl2(m: tuple[int, int, int, int], s: Slope) -> Slope:
    """Projective action of an integer matrix [[a, b], [c, d]] on a slope."""
    a, b, c, d = m
    if a * d - b * c not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    cls = type(s)
    return cls(a * s.p + b * s.q, c * s.p + d * s.q)


def enumerate_slopes(max_height: int) -> set[Slope]:
    """All reduced slopes with |p| <= max_height and q <= max_height.

    Each height's slopes are built once per process; every call returns
    a fresh set.
    """
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    return set(_slopes(max_height))


@lru_cache(maxsize=MEMO_ENTRIES)
def _slopes(max_height: int) -> frozenset[Slope]:
    out = {Slope(1, 0)}
    for q in range(1, max_height + 1):
        for p in range(-max_height, max_height + 1):
            if gcd(abs(p), q) == 1:
                out.add(Slope(p, q))
    return frozenset(out)


def once_intersectors(a: Slope, beta: ArcSlope, max_height: int) -> set[Slope]:
    """Slopes within the enumeration bound whose curve meets the a-curve
    exactly once and the beta-arc at most once.

    There are never more than three: one crossing with a pins the solution
    to a line of slopes, and the beta constraint cuts that line down to at
    most three points.  The arc must cross a (for a = 1/0 this is the
    normalization q(beta) != 0); otherwise the beta constraint is implied
    by the first one and the bound is meaningless.
    """
    if intersect_ca(a, beta) == 0:
        raise ValueError("normalize so that the arc crosses a")
    found = set()
    for c in enumerate_slopes(max_height):
        if intersect_cc(a, c) == 1 and intersect_ca(c, beta) <= 1:
            found.add(c)
    return found


def mn_constraint_solutions(scan: int = 0) -> set[tuple[int, int]]:
    """Integer pairs (m, n) with |m*n - 1| = 1, |m| >= 2 and n != 0.

    |m*n - 1| = 1 forces m*n in {0, 2}; with the side conditions only
    (2, 1) and (-2, -1) survive.  Pass scan > 0 to find the set by
    exhaustive search over |m|, |n| <= scan instead.
    """
    if scan:
        return {
            (m, n)
            for m in range(-scan, scan + 1)
            for n in (1, -1, 2, -2)  # |n| > 2 makes |m*n| >= 4 with |m| >= 2
            if abs(m) >= 2 and abs(m * n - 1) == 1
        }
    return {(2, 1), (-2, -1)}


def mn_scan_has_large_solution(limit: int) -> bool:
    """Whether any pair with |m| >= 3 and |m*n - 1| = 1 exists, |m| <= limit.

    For |m| >= 3 a solution needs |m*n| <= 2, so per m only |n| <= 2 can
    work; the scan over those pairs is exhaustive.
    """
    for m in range(3, limit + 1):
        for mm in (m, -m):
            for n in (-2, -1, 1, 2):
                if abs(mm * n - 1) == 1:
                    return True
    return False


def sorted_slopes(slopes: Iterable[Slope]) -> list[Slope]:
    return sorted(slopes)
