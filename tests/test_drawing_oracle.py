"""The integer drawing against the rational-coordinate one, chord for chord.

Both drawings of a pair must list the same crossings, between the same
chords, with the same signs and in the same order, and every strand
must meet its crossings in the same order.
"""

import random
from collections import Counter

from drawing_oracle import FractionDrawing
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


def _shape(drawing):
    """Strands, crossings and per-strand crossing orders, by position."""
    at = {s: i for i, s in enumerate(drawing.strands)}
    strands = [(s.curve, s.comp, s.letters) for s in drawing.strands]
    crossings = [(at[x.s1], x.k1, at[x.s2], x.k2, x.sign) for x in drawing.crossings]
    number = {x: i for i, x in enumerate(drawing.crossings)}
    orders = [[number[x] for x in drawing.strand_sequence(s)] for s in drawing.strands]
    return strands, crossings, orders


def _most_per_chord(drawing):
    """Most crossings on one chord of the first curve and of the second."""
    first = Counter((id(x.s1), x.k1) for x in drawing.crossings)
    second = Counter((id(x.s2), x.k2) for x in drawing.crossings)
    return max(first.values(), default=0), max(second.values(), default=0)


def _assert_same(tri, curves):
    expected = _shape(FractionDrawing(tri, curves))
    assert _shape(Drawing(tri, curves)) == expected
    return len(expected[1])


def _push(c, word):
    for d, p in word:
        c = ops.twist(c, d, p)
    return c


def test_seeded_pairs():
    rng = random.Random(1508)
    for g, tri in TRIS.items():
        gens = _generators(tri)
        crossings = 0
        for _ in range(25):
            a, b = (
                _push(
                    rng.choice(gens),
                    [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))],
                )
                for _ in range(2)
            )
            d = rng.choice(gens)
            # A pair, a curve against a twisting curve, and a curve against
            # itself, as `twist` draws it.
            for pair in ([a, b], [a, d], [d, b], [a, a]):
                crossings += _assert_same(tri, pair)
        assert crossings > 200


def test_multicurve_pairs():
    tri = TRIS[2]
    a, b, c, d, conn = _generators(tri)
    twisted = ops.twist(ops.twist(b, a, 2), conn, -1)
    pairs = (
        CurveClass.from_words(tri, a.words + c.words),
        CurveClass.from_words(tri, b.words + d.words),
    )
    assert all(len(m.words) == 2 for m in pairs)
    for m in pairs:
        for other in (twisted, conn, a):
            _assert_same(tri, [m, other])
            _assert_same(tri, [other, m])
    _assert_same(tri, list(pairs))


def test_twist_ladder_rungs():
    # Alternating twists along a handle curve and a chain connector, up
    # to rungs of about 2,000 letters.
    for g, k in ((2, 0), (3, 1)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        j = k + 1 if k < g - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        c, n = b, 0
        while len(c.word) < 2000:
            d, p = ((a, 1), (conn, -1))[n % 2]
            c = ops.twist(c, d, p)
            n += 1
        crossings = 0
        for other in (hs[2 * j], a, b, conn):
            crossings += _assert_same(tri, [c, other])
            crossings += _assert_same(tri, [other, c])
        assert crossings > 2000


def test_scale_ladder_pairs():
    # The pairs of the scale benchmark's ladders: every rung of 100 to
    # about 1,000 letters after the neighbouring handle curve and before
    # the curve it is twisted along next, and the twisted images of the
    # neighbouring handle pair against each other, as `band_sum` draws
    # them.  A short curve's chords meet many chords of the long one, so
    # the strand orders of both the first and the second curve sort long
    # runs.
    for g, k in ((2, 0), (3, 1)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        j = k + 1 if k < g - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        c, x, y, n = b, hs[2 * j], hs[2 * j + 1], 0
        rungs, most = 0, (0, 0)
        while len(c.word) <= 1000:
            d, p = ((a, 1), (conn, -1))[n % 2]
            if len(c.word) >= 100:
                rungs += 1
                for pair in ([hs[2 * j], c], [c, d], [x, y]):
                    _assert_same(tri, pair)
                    got = _most_per_chord(Drawing(tri, pair))
                    most = tuple(map(max, most, got))
            c, x, y = (ops.twist(z, d, p) for z in (c, x, y))
            n += 1
        assert rungs >= 5
        assert min(most) > 50


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_twist_words_agree(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=0, max_size=6)
    curves = [
        _push(gens[data.draw(pick, label="base")], [(gens[i], p) for i, p in data.draw(word, label="word")])
        for _ in range(2)
    ]
    _assert_same(tri, curves)
