"""The segment-sweeping arc-arc lattice oracle, one translate at a time.

`cbgraph.oracles.lattice_aa` reads the four orientation tests of each
translate off linear forms; this version computes them point by point
from the segment endpoints and is the reference that
`tests/test_lattice_aa_oracle.py` compares it with.
"""

from cbgraph.farey import ArcSlope


def _seg_cross(a0, a1, b0, b1) -> bool:
    # Proper crossing of open segments, exact rational arithmetic.
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a0, a1, b0), orient(a0, a1, b1)
    o3, o4 = orient(b0, b1, a0), orient(b0, b1, a1)
    return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0) and 0 not in (o1, o2, o3, o4)


def lattice_aa(a: ArcSlope, b: ArcSlope) -> int:
    """Interior crossings of the straight arcs on the punctured torus.

    Both arcs are straight segments between punctures; segment-vs-translate
    counting realizes the minimal position.
    """
    p, q = a.p, a.q
    r, s = b.p, b.q
    a0, a1 = (0, 0), (p, q)
    lo_x, hi_x = min(0, p) - abs(r) - 1, max(0, p) + abs(r) + 1
    lo_y, hi_y = min(0, q) - abs(s) - 1, max(0, q) + abs(s) + 1
    count = 0
    for mx in range(lo_x, hi_x + 1):
        for my in range(lo_y, hi_y + 1):
            b0 = (mx, my)
            b1 = (mx + r, my + s)
            if (b0, b1) == (a0, a1):
                continue
            if _seg_cross(a0, a1, b0, b1):
                count += 1
    return count
