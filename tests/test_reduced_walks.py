"""The walks over a reduced pair against the list-based walks they replaced.

`Reduced.boundary_words` must list the same boundary circle words as
the rotation walk over the rescanning reducer's crossing lists, word
for word and in order: `NeighborhoodProfile.essential_flags` follows
that order.  `Reduced.arc_closures(1)` must give, arc by arc, the same
arc, the same two closing words and the same returning flag as the
positions of the arc's ends in the other curve's list, and
`Reduced.connected` the same answer as a union-find over the surviving
crossings.  Both reducers remove the same bigons (`test_reducer_oracle`),
so the walks run over the same reduced pair; the rescanning reducer
reads an integer drawing through `object_form`.
"""

import random

from drawing_oracle import FractionDrawing, object_form
from hypothesis import given, settings
from hypothesis import strategies as st
from reducer_oracle import RescanReduced, arc_closures, connected, ribbon_boundary_words

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


def _push(c, word):
    for d, p in word:
        c = ops.twist(c, d, p)
    return c


def _assert_walks_agree(tri, curves):
    """Compare both walks on fresh drawings; returns (words, arcs) compared.

    Arc closures are compared when the drawing holds two connected curves.
    """
    draw = Drawing if len(curves) <= 2 else FractionDrawing
    old, new = RescanReduced(object_form(draw(tri, curves))), Reduced(draw(tri, curves))
    assert new.connected() == connected(old)
    words = new.boundary_words()
    assert words == ribbon_boundary_words(tri, old, old.drawing.strands)
    if [s.curve for s in new.drawing.strands] != [0, 1]:
        return len(words), 0
    closures = list(new.arc_closures(1))
    assert closures == arc_closures(tri, old)
    return len(words), len(closures)


def _twisted(rng, tri, steps):
    gens = _generators(tri)
    word = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(*steps))]
    return _push(rng.choice(gens), word)


def test_seeded_pairs_single_curves_and_disjoint_unions():
    rng = random.Random(1533)
    for g, tri in TRIS.items():
        # Sixteen pairs, then more of disjoint classes drawn crossing,
        # whose crossings are all removed, until there are two of them.
        seen, pairs, apart = [0, 0], 0, 0
        while pairs < 16 or apart < 2:
            a, b = _twisted(rng, tri, (1, 6)), _twisted(rng, tri, (1, 6))
            drawn_apart = Drawing(tri, [a, b]).raw_count(0, 1) > 0 == ops.intersect(a, b)
            if a == b or pairs >= 16 and not drawn_apart:
                continue
            pairs, apart = pairs + 1, apart + drawn_apart
            # Both drawing orders, as `reduced_pair` draws either.
            for pair in ([a, b], [b, a]):
                seen = list(map(sum, zip(seen, _assert_walks_agree(tri, pair))))
            _assert_walks_agree(tri, [a])
        assert seen[0] > 20 and seen[1] > 15
        # Disjoint handle curves: no crossing, so only annulus words.
        hs = handle_curves(tri)
        assert _assert_walks_agree(tri, [hs[0], hs[2]]) == (4, 0)
        assert _assert_walks_agree(tri, [hs[0]]) == (2, 0)


def test_multicurve_pairs_and_three_curve_sets():
    tri = TRIS[2]
    a, b, c, d, conn = _generators(tri)
    twisted = ops.twist(ops.twist(b, a, 2), conn, -1)
    multis = (
        CurveClass.from_words(tri, a.words + c.words),
        CurveClass.from_words(tri, b.words + d.words),
    )
    for m in multis:
        for other in (twisted, conn, a):
            _assert_walks_agree(tri, [m, other])
            _assert_walks_agree(tri, [other, m])
    _assert_walks_agree(tri, list(multis))
    rng = random.Random(1534)
    for g, tri in TRIS.items():
        for _ in range(3):
            curves = sorted({_twisted(rng, tri, (1, 4)) for _ in range(3)})
            _assert_walks_agree(tri, curves)


def test_scale_ladder_rungs_against_handle_curves():
    # One rung of each scale benchmark ladder: alternating twists along
    # a handle curve and a chain connector, against every handle curve.
    for g, k, letters in ((2, 0, 1000), (3, 1, 600)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        j = k + 1 if k < g - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        c, n = b, 0
        while len(c.word) < letters:
            d, p = ((a, 1), (conn, -1))[n % 2]
            c = ops.twist(c, d, p)
            n += 1
        arcs = 0
        for h in hs:
            arcs += _assert_walks_agree(tri, [c, h])[1]
            arcs += _assert_walks_agree(tri, [h, c])[1]
        assert arcs > 400


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_twist_words_agree(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=0, max_size=5)
    curves = [
        _push(gens[data.draw(pick, label="base")], [(gens[i], p) for i, p in data.draw(word, label="word")])
        for _ in range(2)
    ]
    _assert_walks_agree(tri, curves if curves[0] != curves[1] else curves[:1])
