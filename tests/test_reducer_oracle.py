"""The worklist reducer against the rescanning one, crossing for crossing.

Both reducers run on separate but identical drawings; they must remove
the same crossings in the same order, and leave the same crossing
sequences, the same arcs and the same surviving crossings.  The
rescanning reducer merges arcs by free reduction, the worklist reducer
reads them as slices of the strand's letters, so equal arcs also show
that the merge never cancels a letter.  With three or more
curves the result depends on the removal order, which the worklist
must keep equal to the rescan's.  `Drawing` holds at most two curves,
so those sets are drawn by the rational-coordinate oracle drawing.  The
rescanning reducer reads an integer drawing through `object_form`, and
crossings are named by the ends that form gives them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import reducer_oracle
from drawing_oracle import FractionDrawing, object_form
from reducer_oracle import RescanReduced

from cbgraph import ops
from cbgraph.geom import Drawing
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


def _strand_lists(reduced):
    """Per strand, its surviving crossings in order and the arcs after them.

    The rescanning reducer keeps these lists; the worklist reducer's
    are read off its halves, whose links must run through the
    surviving halves of each strand in drawn order, cyclically.
    """
    if isinstance(reduced, RescanReduced):
        return [(reduced.seqs[s], reduced.arcs[s]) for s in reduced.drawing.strands]
    d, succ, pred = reduced.drawing, reduced.succ, reduced.pred
    crossings, cross, other = d.crossings, d.cross, d.other
    assert all(cross[other[h]] == x and other[other[h]] == h for h, x in enumerate(cross))
    out = []
    for m in range(len(d.firsts) - 1):
        kept = [h for h in range(d.firsts[m], d.firsts[m + 1]) if crossings[cross[h]].alive]
        assert all(d.strand_of[h] == m for h in kept)
        assert [succ[h] for h in kept] == kept[1:] + kept[:1]
        assert [pred[h] for h in kept] == kept[-1:] + kept[:-1]
        out.append(([crossings[cross[h]] for h in kept], [reduced.arc(h) for h in kept]))
    return out


def _names(drawing):
    """Names of crossings by their ends, the same across identical drawings."""
    at = {s: i for i, s in enumerate(drawing.strands)}
    records = object_form(drawing).crossings
    return {
        x: (at[r.s1], r.k1, r.p1, at[r.s2], r.k2, r.p2)
        for x, r in zip(drawing.crossings, records)
    }.__getitem__


def _snapshot(reduced):
    """Seqs, arcs and alive flags with crossings named by their ends."""
    name = _names(reduced.drawing)
    lists = _strand_lists(reduced)
    seqs = [[name(x) for x in seq] for seq, _ in lists]
    arcs = [arcs for _, arcs in lists]
    alive = [x.alive for x in reduced.drawing.crossings]
    return seqs, arcs, alive


def _run(reducer, tri, curves):
    """Reduce a fresh drawing, recording the crossings in removal order.

    Each crossing is recast as a subclass of its own class whose `alive`
    setter logs the crossing when cleared; the layout is the same, so
    the reducers see no difference.
    """
    drawing = (Drawing if len(curves) <= 2 else FractionDrawing)(tri, curves)
    if reducer is RescanReduced:
        drawing = object_form(drawing)
    name, removed = _names(drawing), []
    if not drawing.crossings:
        return reducer(drawing), removed
    cls = type(drawing.crossings[0])
    slot = cls.alive

    def clear(x, value):
        if not value:
            removed.append(name(x))
        slot.__set__(x, value)

    logged = type(
        "LoggedCrossing", (cls,), {"__slots__": (), "alive": property(slot.__get__, clear)}
    )
    for x in drawing.crossings:
        x.__class__ = logged
    return reducer(drawing), removed


def _assert_same(tri, curves):
    old, old_removed = _run(RescanReduced, tri, curves)
    new, new_removed = _run(Reduced, tri, curves)
    assert new_removed == old_removed
    expected = _snapshot(old)
    assert _snapshot(new) == expected
    assert len(old_removed) == expected[2].count(False)
    return expected[2].count(False) // 2


def _push(c, word):
    for d, p in word:
        c = ops.twist(c, d, p)
    return c


def _seeded_curves(rng, tri, count):
    gens = _generators(tri)
    return [
        _push(
            rng.choice(gens),
            [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(2, 6))],
        )
        for _ in range(count)
    ]


def test_seeded_pairs_and_multicurve_sets():
    rng = random.Random(1508)
    removed = {2: 0, 3: 0, 4: 0}
    for g, tri in TRIS.items():
        for count in (2, 2, 3, 3, 4, 4):
            for _ in range(3):
                curves = sorted(set(_seeded_curves(rng, tri, count)))
                removed[g] += _assert_same(tri, curves)
    # The sets must exercise removal, not just agree on empty work.
    assert all(n > 10 for n in removed.values())


def test_twist_ladder_rungs():
    # Alternating twists along a handle curve and a chain connector: the
    # drawings against the other handle and the twisting curves carry
    # many bigons, and the three-curve sets make the order matter.
    for g, k in ((2, 0), (3, 1)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        j = k + 1 if k < g - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        c, removed = b, 0
        for n in range(5):
            d, p = ((a, 1), (conn, -1))[n % 2]
            c = ops.twist(c, d, p)
            for others in ([hs[2 * j]], [d], [b], [a, hs[2 * j], conn]):
                if c not in others:
                    removed += _assert_same(tri, [c] + others)
        assert removed > 20


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    genus=st.sampled_from((2, 3, 4)),
    data=st.data(),
)
def test_twist_words_agree(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=1, max_size=5)
    count = data.draw(st.integers(2, 4), label="count")
    curves = set()
    for _ in range(count):
        base = data.draw(pick, label="base")
        steps = data.draw(word, label="word")
        curves.add(_push(gens[base], [(gens[i], p) for i, p in steps]))
    _assert_same(tri, sorted(curves))
