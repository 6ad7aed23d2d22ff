"""The sector rule of `curve_from_chords` against the rational predicates."""

from fractions import Fraction
from itertools import product

from polygon_oracle import chord_diagonals, polygon_vertices

from cbgraph.polygon import _chord_letters

PARAMS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def _diagonal(letter):
    # Letter 3t + s enters fan triangle t = (v0, v_t+1, v_t+2) across
    # slot s; slot 0 is the diagonal to v_t+1 and slot 2 the one to v_t+2.
    t, slot = divmod(letter, 3)
    assert slot in (0, 2)
    return t + 1 if slot == 0 else t + 2


def test_polygon_vertices_convex():
    for g in (2, 3):
        verts = polygon_vertices(g)
        n = len(verts)
        assert n == 4 * g
        for i in range(n):
            o, a, b = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0
        assert all(x * x + y * y == 1 for x, y in verts)


def test_sector_rule_hits_the_diagonals_the_predicates_hit():
    for g in (2, 3, 4):
        m = 4 * g
        for p, q in product(range(m), repeat=2):
            if p == q:
                continue
            want = [_diagonal(x) for x in _chord_letters(g, p, q)[1:]]
            # Each end sees every parameter once.
            for s, t in zip(PARAMS, reversed(PARAMS)):
                assert chord_diagonals(g, p, s, q, t) == want, (g, p, s, q, t)
