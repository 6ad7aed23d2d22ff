"""Exact slope arithmetic in a once-punctured torus and the Farey graph.

Curves and properly embedded arcs in a once-punctured torus are labelled by
extended rationals p/q.  Everything here is integer arithmetic: intersection
numbers are determinants, Farey adjacency is determinant one, and distances
are read off the continued fraction of a slope by one pass of the Euclidean
algorithm, checked in the test suite against a parent descent and BFS.
"""

from __future__ import annotations

from math import gcd


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


class ArcSlope(Slope):
    """The p/q-arc: the unique properly embedded arc disjoint from the
    p/q-curve.  Same normalization as Slope."""

    __slots__ = ()


def intersect_cc(a: Slope, b: Slope) -> int:
    """Geometric intersection number of the a-curve and the b-curve."""
    return abs(a.p * b.q - a.q * b.p)


def intersect_ca(c: Slope, a: ArcSlope) -> int:
    """Geometric intersection number of the c-curve and the a-arc."""
    return abs(c.p * a.q - c.q * a.p)


def intersect_aa(a: ArcSlope, b: ArcSlope) -> int:
    """Geometric intersection number of the a-arc and the b-arc.

    One crossing fewer than the determinant: the two arcs can always trade
    a crossing for a trip around the puncture.
    """
    return max(abs(a.p * b.q - a.q * b.p) - 1, 0)


def _dist_to_infinity(p: int, q: int) -> int:
    """Distance from p/q (q >= 0) to 1/0 in the Farey graph.

    Let p/q = [a0; a1, ..., an] with convergents c_k, and E_k the distance
    from c_k to 1/0: E_-1 = 0 (c_-1 = 1/0) and E_0 = 1 (an integer).  Some
    geodesic to 1/0 never increases the denominator, so a slope with q >= 2
    is one step further than the nearer of its two Stern-Brocot parents
    (its Farey neighbours of smaller denominator).  The parents of
    x_m = [a0; ..., a_(k-1), m] are c_(k-1) and x_(m-1), with
    x_0 = c_(k-2).  Consecutive convergents are Farey neighbours, so
    E_(k-1) and E_(k-2) differ by at most one, and x_1 is at distance
    1 + min(E_(k-1), E_(k-2)) >= E_(k-1); every x_m with m >= 2 is then
    at 1 + E_(k-1).  So E_k = 1 + E_(k-1) when a_k >= 2 and
    E_k = 1 + min(E_(k-1), E_(k-2)) when a_k = 1, and the distance is E_n
    (Beardon, Hockman and Short, "Geodesic continued fractions", Michigan
    Math. J. 61, 2012).
    """
    if q == 0:
        return 0
    before, dist = 0, 1
    p, q = q, p % q
    while q:
        a, r = divmod(p, q)
        before, dist = dist, 1 + (dist if a >= 2 else min(dist, before))
        p, q = q, r
    return dist


def _partner(p: int, q: int) -> tuple[int, int]:
    """(r, s) with p*s - q*r = 1, for a reduced slope p/q (s = 0 and
    r = -1 when q = 1, r = 0 and s = 1 for 1/0)."""
    if q == 0:
        return 0, 1
    s = pow(p, -1, q)
    return (p * s - 1) // q, s


def farey_distance(a: Slope, b: Slope) -> int:
    """Graph distance between two slopes in the Farey graph."""
    if a == b:
        return 0
    # The matrix [[s, -r], [-q, p]] of determinant one sends a = p/q to
    # 1/0 and acts on the Farey graph as a graph automorphism; measure
    # the image of b.
    p, q = a.p, a.q
    r, s = _partner(p, q)
    img = Slope(s * b.p - r * b.q, p * b.q - q * b.p)
    return _dist_to_infinity(img.p, img.q)


# Heights `enumerate_slopes` lists.  A census holds about 1.2 h^2
# slopes: 304,464 at the bound, built in 0.5 s with a 63 MB peak, and
# 1,216,768 at h = 1,000, built in 2.1 s with a 226 MB peak.
MAX_CENSUS_HEIGHT = 500


def enumerate_slopes(max_height: int) -> set[Slope]:
    """All reduced slopes with |p| <= max_height and q <= max_height."""
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    if max_height > MAX_CENSUS_HEIGHT:
        raise RuntimeError(
            f"census height exceeded MAX_CENSUS_HEIGHT = {MAX_CENSUS_HEIGHT}:"
            f" max_height {max_height} requested"
        )
    span = range(-max_height, max_height + 1)
    return {Slope(1, 0)} | {
        Slope(p, q) for q in range(1, max_height + 1) for p in span if gcd(p, q) == 1
    }


def once_intersectors(a: Slope, beta: ArcSlope, max_height: int) -> set[Slope]:
    """Slopes within the enumeration bound whose curve meets the a-curve
    exactly once and the beta-arc at most once.

    There are never more than three.  With p*s - q*r = 1, the curves
    meeting a once are c = (r, s) + k*a up to sign, and
    c x beta = (r, s) x beta + k*(a x beta), so |c x beta| <= 1 leaves k
    in one interval of length 2 / |a x beta|.  The arc must cross a (for
    a = 1/0 this is the normalization q(beta) != 0); otherwise the beta
    constraint is implied by the first one and the bound is meaningless.
    Each c is primitive, so it is kept when |p(c)| and |q(c)| are at most
    max_height, as in `enumerate_slopes(max_height)`; no census is built,
    so `MAX_CENSUS_HEIGHT` does not apply.
    """
    if intersect_ca(a, beta) == 0:
        raise ValueError("normalize so that the arc crosses a")
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    ap, aq, bp, bq = a.p, a.q, beta.p, beta.q
    r, s = _partner(ap, aq)
    # -1 <= e + k*d <= 1 with d = a x beta, e = (r, s) x beta, and d > 0.
    d, e = ap * bq - aq * bp, r * bq - s * bp
    if d < 0:
        d, e = -d, -e
    line = ((r + k * ap, s + k * aq) for k in range(-((1 + e) // d), (1 - e) // d + 1))
    return {Slope(cp, cq) for cp, cq in line if max(abs(cp), abs(cq)) <= max_height}


def mn_scan(limit: int) -> frozenset[tuple[int, int]]:
    """Every (m, n) with |m| <= limit, n in (1, -1, 2, -2) and |m*n - 1| = 1.

    One exhaustive pass over the 4 * (2 * limit + 1) pairs of that domain,
    8,000,004 for limit 10**6.  For each n the values m*n - 1 over every m
    form the range below; `set.intersection` with an argument that is not
    a set iterates it in C and looks each value up in {1, -1}, so every
    value is made and tested, without a bytecode step per pair.  m is
    recovered as (v + 1) // n.  `mn_scan_has_large_solution` and the
    census suite read their answers off this set.
    """
    units = frozenset((1, -1))
    return frozenset(
        ((v + 1) // n, n)
        for n in (1, -1, 2, -2)
        for v in units.intersection(range(-limit * n - 1, limit * n + n - 1, n))
    )


def mn_constraint_solutions() -> set[tuple[int, int]]:
    """Integer pairs (m, n) with |m*n - 1| = 1, |m| >= 2 and n != 0.

    |m*n - 1| = 1 forces m*n in {0, 2}; with the side conditions only
    (2, 1) and (-2, -1) survive.  The census suite checks the same set
    by exhaustive search over 2 <= |m| <= 10**6 and n in (1, -1, 2, -2):
    `mn_scan` tests m*n - 1 for every one of those pairs.  |n| > 2 needs
    no scan, since with |m| >= 2 it makes |m*n| >= 6 while a solution
    has |m*n| <= 2.
    """
    return {(2, 1), (-2, -1)}


def mn_scan_has_large_solution(limit: int) -> bool:
    """Whether any pair with |m| >= 3 and |m*n - 1| = 1 exists, |m| <= limit.

    For |m| >= 3 a solution needs |m*n| <= 2, so per m only |n| <= 2 can
    work; `mn_scan` over those pairs is exhaustive.
    """
    return any(abs(m) >= 3 for m, _ in mn_scan(limit))
