"""The per-corner counts of `geom.crossing_counts` against drawings, and
the pair operations that read them in place of a drawing.

The counts must equal the crossings of `Drawing(tri, [a, b])` and of
`Drawing(tri, [b, a])` and the drawing's signed count `algebraic(0, 1)`,
on every drawing of two curves in one seed-101 pass of each benchmark
workload, on seeded pairs, on the scale ladder's rungs, on `hypothesis`
twist words at genus 2-4 and on multicurves of several traced cycles.
The operations that skip a drawing must answer as a drawing does: a
pair whose drawing in one stacked order is minimal is not reduced, two
curves meeting once have the neighbourhood profile the punctured-torus
test no longer builds, and a twist that the counts skip (the pair drawn
apart in some order) equals the twist spliced at a drawing's crossings.
"""

import random

import workload_pass
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing, crossing_counts
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(tri.genus - 1)]


def _drawn(a, b):
    """(raw, reversed raw, algebraic) read off the two drawings."""
    forward, backward = Drawing(a.tri, [a, b]), Drawing(a.tri, [b, a])
    alg = forward.algebraic(0, 1)
    assert backward.algebraic(1, 0) == alg
    return forward.raw_count(0, 1), backward.raw_count(0, 1), alg


def _assert_counts(a, b):
    raw, reversed_raw, alg = crossing_counts(a, b)
    assert (raw, reversed_raw, alg) == _drawn(a, b)
    assert crossing_counts(b, a) == (reversed_raw, raw, -alg)


def _twisted(rng, gens, c, n):
    for _ in range(n):
        c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
    return c


def test_counts_equal_every_drawing_of_a_workload_pass():
    drawings = workload_pass.recorded().drawings
    for a, b, crossings, alg in drawings:
        raw, _, signed = crossing_counts(a, b)
        assert (raw, signed) == (crossings, alg)
    assert len(drawings) > 1000


def test_counts_equal_drawings_of_seeded_pairs():
    rng = random.Random(4299)
    for tri in TRIS.values():
        gens = _generators(tri)
        for _ in range(40):
            a = _twisted(rng, gens, rng.choice(gens), rng.randint(0, 4))
            b = _twisted(rng, gens, rng.choice(gens), rng.randint(0, 4))
            _assert_counts(a, b)


def test_counts_equal_drawings_of_ladder_rungs():
    # The scale benchmark's genus-2 ladder to 2,000 letters, each rung
    # against every generator.
    tri = TRIS[2]
    gens = _generators(tri)
    a, b = gens[:2]
    steps = ((a, 1), (chain_connector(tri, 0), -1))
    c, n = b, 0
    while len(c.word) < 2000:
        d, p = steps[n % 2]
        c = ops.twist(c, d, p)
        n += 1
        for h in gens:
            _assert_counts(c, h)
    assert n >= 8


def test_counts_equal_drawings_of_multicurves():
    # Parallel copies and disjoint unions of handle curves, mapped by
    # twist words, against curves and against each other.
    rng = random.Random(7)
    for tri in TRIS.values():
        gens = _generators(tri)
        a0, _, a1, _ = gens[:4]
        for _ in range(6):
            word = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
            union = CurveClass.from_words(tri, [a0.word, a1.word])
            copies = CurveClass.from_weights(tri, tuple(2 * x for x in a0.weights))
            for d, p in word:
                union, copies = ops.twist(union, d, p), ops.twist(copies, d, p)
            assert len(union.trace) == len(copies.trace) == 2
            other = _twisted(rng, gens, rng.choice(gens), 2)
            _assert_counts(union, other)
            _assert_counts(copies, other)
            _assert_counts(union, copies)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_counts_equal_drawings_of_twist_words(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), max_size=4)
    pair = []
    for label in ("a", "b"):
        c = gens[data.draw(pick, label=label)]
        for i, p in data.draw(word, label=label + " word"):
            c = ops.twist(c, gens[i], p)
        pair.append(c)
    _assert_counts(*pair)


def _seeded_pairs(count):
    rng = random.Random(1)
    for tri in TRIS.values():
        gens = _generators(tri)
        for _ in range(count):
            yield (
                _twisted(rng, gens, rng.choice(gens), rng.randint(0, 3)),
                _twisted(rng, gens, rng.choice(gens), rng.randint(0, 3)),
            )


def test_a_pair_minimal_in_one_stacked_order_is_not_reduced(monkeypatch):
    # |algebraic| <= i <= raw in either order, so an order whose raw
    # count is |algebraic| decides i, though the other order exceeds it.
    pairs = []
    for a, b in _seeded_pairs(60):
        raw, reversed_raw, alg = crossing_counts(a, b)
        if min(raw, reversed_raw) == abs(alg) < max(raw, reversed_raw):
            pairs.append((a, b, Reduced(Drawing(a.tri, [a, b])).count()))
    monkeypatch.setattr(Reduced, "_reduce", None)  # a reduction would raise
    for a, b, want in pairs:
        assert ops.intersect(a, b) == want
    assert len(pairs) > 5


def test_pairs_meeting_once_have_a_punctured_torus_profile():
    once = 0
    for a, b in _seeded_pairs(60):
        if a != b and ops.intersect(a, b) == 1:
            prof = ops.neighborhood_profile([a, b])
            assert (prof.connected, prof.genus, prof.boundary_components) == (True, 1, 1)
            assert ops.common_punctured_torus([a, b])
            once += 1
    assert once > 10


def test_a_twist_skipped_by_the_counts_equals_the_drawn_one(monkeypatch):
    # A pair drawn apart in some order: the twist the counts skip equals
    # the one spliced at the crossings of a drawing, in the order whose
    # drawing crosses if the other does not.
    skipped = 0
    for c, d in _seeded_pairs(60):
        raw, reversed_raw, _ = crossing_counts(c, d)
        if not d.is_connected or (raw and reversed_raw):
            continue
        for p in (1, -1):
            want = ops.twist(c, d, p)
            assert want == c
            with monkeypatch.context() as m:
                m.setattr(ops, "crossing_counts", lambda *_: (1, 1, 0))
                ops.LAST_PAIR.clear()
                ops.LAST_PAIR.draw(*((d, c) if reversed_raw else (c, d)), either_order=False)
                assert ops.twist(c, d, p) == want
        skipped += 1
    assert skipped > 20
