"""Warm memos give the answers of a cold computation.

`ops.intersect`, `ops.algebraic_intersect`, `ops.common_punctured_torus`,
`projections.project` and `farey.enumerate_slopes` read bounded memos of
exact answers.  Each test asks its questions with the memos filling up,
again with them warm, and once more after `cache_clear()`, and requires
the same answers every time.  The pair memos store one order of each
pair, so the computations behind them are also checked to be symmetric
(geometric) and antisymmetric (algebraic) under swapping the pair.
"""

import itertools
import random

from conftest import MEMOS
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import ops
from cbgraph import projections as pj
from cbgraph.farey import Slope, enumerate_slopes
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}
ORIENTATIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


def _pool(rng, tri, size):
    """Generators and their images under at most two random twists."""
    gens = _generators(tri)
    pool = set(gens[:3])
    while len(pool) < size:
        c = rng.choice(gens)
        for _ in range(rng.randint(1, 2)):
            c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
        pool.add(c)
    return sorted(pool)


def _pair_answers(a, b):
    """Every memoised answer about a pair, in both orders."""
    out = [ops.intersect(a, b), ops.intersect(b, a)]
    for o in ORIENTATIONS:
        out += [ops.algebraic_intersect(a, b, o), ops.algebraic_intersect(b, a, o)]
    return out


def test_pair_answers_equal_cold_answers():
    rng = random.Random(1508)
    crossing = 0
    for tri in TRIS.values():
        pool = _pool(rng, tri, 8)
        pairs = list(itertools.combinations(pool, 2))
        warm = [_pair_answers(a, b) for a, b in pairs]
        assert [_pair_answers(a, b) for a, b in pairs] == warm
        for (a, b), got in zip(pairs, warm):
            _clear()
            assert _pair_answers(a, b) == got
            # Unmemoised and unsorted, in both orders, the answers are the same.
            raw = [ops._intersect.__wrapped__(a, b), ops._intersect.__wrapped__(b, a)]
            raw += [ops._algebraic.__wrapped__(a, b), ops._algebraic.__wrapped__(b, a)]
            assert got[:4] == raw
            crossing += got[0] > 0
    assert crossing > 10


def test_punctured_torus_answers_equal_cold_answers():
    rng = random.Random(1509)
    seen = set()
    for tri in TRIS.values():
        pool = [c for c in _pool(rng, tri, 7) if not c.is_separating]
        sets = list(itertools.combinations(pool, 2)) + rng.sample(
            list(itertools.combinations(pool, 3)), 6
        )
        for curves in sets:
            orders = list(itertools.permutations(curves))
            warm = {ops.common_punctured_torus(list(o)) for o in orders}
            assert len(warm) == 1
            _clear()
            assert ops.common_punctured_torus(list(rng.choice(orders))) in warm
            seen |= warm
    assert seen == {True, False}


def test_projection_answers_equal_cold_answers():
    rng = random.Random(1510)
    nonempty = 0
    for tri in TRIS.values():
        a, b = handle_curves(tri)[:2]
        w = ops.band_sum(a, b)
        for side in ("left", "right"):
            sel = pj.SideSelector(w, side)
            assert sel == pj.SideSelector(w, side)
            assert hash(sel) == hash(pj.SideSelector(w, side))
            assert sel != sel.other()
            for c in _pool(rng, tri, 6):
                got = pj.project(sel, c)
                want = set(got)
                got.add(w)  # callers may mutate what they get back
                assert pj.project(pj.SideSelector(w, side), c) == want
                _clear()
                assert pj.project(pj.SideSelector(w, side), c) == want
                nonempty += bool(want)
    assert nonempty > 5


def test_enumerate_slopes_returns_fresh_sets():
    for h in (1, 2, 5, 1):
        first = enumerate_slopes(h)
        want = set(first)
        first.clear()
        first.add(Slope(99, 1))
        assert enumerate_slopes(h) == want
        _clear()
        assert enumerate_slopes(h) == want
    assert len(enumerate_slopes(1)) == 4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_twist_words_warm_equals_cold(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=1, max_size=4)
    c = gens[data.draw(pick, label="base")]
    for i, p in data.draw(word, label="word"):
        c = ops.twist(c, gens[i], p)

    def answers():
        return [
            (_pair_answers(c, g), ops.common_punctured_torus([g, c])) for g in gens
        ]

    warm = answers()
    assert answers() == warm
    _clear()
    assert answers() == warm
