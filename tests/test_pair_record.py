"""The pair operations share the last pair's drawing without changing answers.

`ops.LAST_PAIR` holds the last curve pair drawn, its `Drawing` and, once
an operation asked for it, its `Reduced`.  Every operation that reads the
record must answer as it does with the record cleared: after the record
was drawn in the operation's own order, in the reversed order, and in
either order with its reduction already made.  The memos are cleared
before each call, so every answer is computed.  A fresh-pairs query
(three reads and a twist) draws each pair once, and a record is freed as
soon as another pair is drawn (see `test_drawings.py`).
"""

import itertools
import random

import pytest
from conftest import MEMOS
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import geom, ops, position
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


def _profile(prof):
    return tuple(getattr(prof, name) for name in ops.NeighborhoodProfile.__slots__)


def _calls(a, b):
    """Each operation on the pair, in both argument orders where it has one."""
    calls = [
        lambda: ops.intersect(a, b),
        lambda: ops.algebraic_intersect(a, b),
        lambda: ops.algebraic_intersect(b, a),
        lambda: _profile(ops.neighborhood_profile([a, b])),
        lambda: ops.common_punctured_torus([a, b]),
    ]
    for c, d in ((a, b), (b, a)):
        calls += [lambda c=c, d=d, p=p: ops.twist(c, d, p) for p in (1, -1)]
    if ops.intersect(a, b) == 1:
        calls += [lambda: ops.band_sum(a, b), lambda: ops.band_sum(b, a)]
    return calls


def _warm(first, second, reduced):
    """Empty memos and a record of the pair (first, second)."""
    for memo in MEMOS:
        memo.cache_clear()
    ops.LAST_PAIR.clear()
    ops.LAST_PAIR.draw(first, second, either_order=False)
    if reduced:
        ops.LAST_PAIR.reduced  # noqa: B018 - builds the reduction


def _cold(call):
    for memo in MEMOS:
        memo.cache_clear()
    ops.LAST_PAIR.clear()
    return call()


def _assert_shared_equals_cold(a, b, calls):
    for call in calls:
        want = _cold(call)
        for (first, second), reduced in itertools.product(((a, b), (b, a)), (False, True)):
            _warm(first, second, reduced)
            assert call() == want


def _twisted(data, tri, label):
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), max_size=2)
    c = gens[data.draw(pick, label=label)]
    for i, p in data.draw(word, label=label + " word"):
        c = ops.twist(c, gens[i], p)
    return c


@settings(max_examples=30, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_shared_drawings_give_cold_answers(genus, data):
    tri = TRIS[genus]
    a, b = _twisted(data, tri, "a"), _twisted(data, tri, "b")
    _assert_shared_equals_cold(a, b, _calls(a, b))


def test_fixed_pairs_share_the_drawing():
    # Two pairs meeting once, so that `band_sum` runs on a shared
    # reduction, and a pair whose neighborhood has an essential and a
    # capped boundary circle, whose flags follow the drawing order.
    tri = TRIS[2]
    a, b, a1, b1 = handle_curves(tri)
    conn = chain_connector(tri, 0)
    once = [(a, b), (ops.twist(a1, conn, 1), ops.twist(b1, conn, 1))]
    capped = (ops.twist(a1, conn, -1), ops.twist(a1, conn, 1))
    for c, d in once + [capped]:
        _assert_shared_equals_cold(c, d, _calls(c, d))
    assert all(ops.intersect(c, d) == 1 for c, d in once)
    assert set(ops.neighborhood_profile(capped).essential_flags) == {True, False}


def test_long_rung_twist_and_band_sum_read_the_reversed_record():
    # The scale benchmark's genus-2 ladder up to its first rung of at
    # least 1,000 letters: the rung c and the images x, y of a_1, b_1.
    tri = TRIS[2]
    a, b, x, y = handle_curves(tri)
    steps = ((a, 1), (chain_connector(tri, 0), -1))
    c, n = b, 0
    while len(c.word) < 1000:
        d, p = steps[n % 2]
        c, x, y = ops.twist(c, d, p), ops.twist(x, d, p), ops.twist(y, d, p)
        n += 1
    d, p = steps[n % 2]
    twist = lambda: ops.twist(c, d, p)  # noqa: E731
    band = lambda: ops.band_sum(x, y)  # noqa: E731
    for call, (first, second) in ((twist, (d, c)), (band, (y, x))):
        want = _cold(call)
        for reduced in (False, True):
            _warm(first, second, reduced)
            assert call() == want


def test_an_interrupted_reduction_drops_the_record(monkeypatch):
    # A reduction cut short has cleared `alive` on some crossings, so its
    # drawing must not serve the next operation.
    tri = TRIS[2]
    a, b, a1, _ = handle_curves(tri)
    c = ops.twist(ops.twist(b, a, 1), chain_connector(tri, 0), -1)
    want = _cold(lambda: ops.intersect(c, a1))

    def interrupted(self):
        self.drawing.crossings[0].alive = False
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(position.Reduced, "_reduce", interrupted)
        ops.LAST_PAIR.draw(c, a1, either_order=False)
        with pytest.raises(KeyboardInterrupt):
            ops.LAST_PAIR.reduced  # noqa: B018 - builds the reduction
    assert ops.LAST_PAIR.drawing is None
    for memo in MEMOS:
        memo.cache_clear()
    assert ops.intersect(c, a1) == want


@pytest.fixture
def built(monkeypatch):
    """Counts of `Drawing` and `Reduced` constructions."""
    counts = {"drawings": 0, "reduced": 0}
    draw, reduce = geom.Drawing._build, position.Reduced._reduce

    def counted_draw(self):
        counts["drawings"] += 1
        return draw(self)

    def counted_reduce(self):
        counts["reduced"] += 1
        return reduce(self)

    monkeypatch.setattr(geom.Drawing, "_build", counted_draw)
    monkeypatch.setattr(position.Reduced, "_reduce", counted_reduce)
    return counts


def test_a_fresh_pair_query_draws_once(built):
    rng = random.Random(1512)
    pairs = set()
    for tri in TRIS.values():
        gens = _generators(tri)
        while len(pairs) < 10 * (tri.genus - 1):
            c, d = rng.choice(gens), rng.choice(gens)
            for _ in range(2):
                c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
            pairs.add((c, d) if rng.random() < 0.5 else (d, c))
    reduced = reversed_twists = 0
    for x, y in sorted(pairs):
        before = dict(built)
        ops.intersect(x, y)
        ops.algebraic_intersect(x, y)
        ops.common_punctured_torus([x, y])
        ops.twist(x, y, 1)
        assert built["drawings"] - before["drawings"] == 1
        assert built["reduced"] - before["reduced"] <= 1
        reduced += built["reduced"] - before["reduced"]
        reversed_twists += y < x
    assert len(pairs) == 30 and reduced > 3 and reversed_twists > 3
