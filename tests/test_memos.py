"""Warm memos give the answers of a cold computation.

`ops.intersect`, `ops.algebraic_intersect`, `ops.common_punctured_torus`,
`projections.project`, `cb.small_cb`, the standard-form placement
`cb._placement`, `cut.cut_profile` and `CurveClass.from_weights` read
the eight bounded memos of exact answers.  Each
test asks its questions with the memos filling up, again with them warm,
and once more after `cache_clear()`, and requires the same answers every
time.  The pair memos store one order of each pair, so the computations
behind them are also checked to be symmetric (geometric) and
antisymmetric (algebraic) under swapping the pair.
"""

import importlib
import itertools
import pkgutil
import random

import pytest
from conftest import MEMOS
from hypothesis import given, settings
from hypothesis import strategies as st

import cbgraph
from cbgraph import MEMO_ENTRIES, cb, cut, ops
from cbgraph import projections as pj
from cbgraph.curves import CurveClass, _from_weights
from cbgraph.farey import Slope, enumerate_slopes
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


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
    return [
        ops.intersect(a, b),
        ops.intersect(b, a),
        ops.algebraic_intersect(a, b),
        ops.algebraic_intersect(b, a),
    ]


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


def _systems(rng, tri):
    """Disjoint systems of handle curves and a separating band sum, each
    also moved by a random twist word (which keeps it disjoint)."""
    h = handle_curves(tri)
    w = ops.band_sum(h[0], h[1])
    systems = [[h[0]], [w], [h[0], h[2]], [h[2], w], [h[0], h[2], w]]
    if tri.genus == 3:
        systems.append([h[0], h[2], h[4]])
    gens = _generators(tri)
    out = []
    for system in systems:
        word = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
        moved = list(system)
        for along, p in word:
            moved = [ops.twist(c, along, p) for c in moved]
        out += [system, moved]
    return out


def _body_answers(body):
    return body.system, body.derived_type, body.to_json()


def test_small_bodies_are_shared_and_equal_cold_bodies():
    rng = random.Random(1511)
    for genus in (2, 3):
        tri = TRIS[genus]
        for a in _pool(rng, tri, 5):
            body = cb.small_cb(a)
            assert cb.small_cb(a) is body
            want = _body_answers(body)
            _clear()
            cold = cb.small_cb(a)
            assert cold is not body and cold == body
            assert _body_answers(cold) == want
            assert want == _body_answers(cb.MarkedCB(tri, [a], small_base=a))


def test_placements_equal_cold_placements():
    rng = random.Random(1512)
    seen = set()
    for genus in (2, 3):
        tri = TRIS[genus]
        for system in _systems(rng, tri):
            order = cb.MarkedCB(tri, system).system
            asks = [
                (order[:k], a) for k in range(len(order)) for a in order[k:]
            ]
            warm = [cb._placement(tri, ordered, a) for ordered, a in asks]
            assert [cb._placement(tri, o, a) for o, a in asks] == warm
            _clear()
            assert [cb._placement(tri, o, a) for o, a in asks] == warm
            raw = [cb._placement.__wrapped__(tri, o, a) for o, a in asks]
            assert raw == warm
            seen.update(warm)
    # Eligible and repairable placements both occur, and neither always.
    assert {e for e, _ in seen} == {True, False}
    assert {r for _, r in seen} == {True, False}


def test_cut_profiles_are_fresh_lists_equal_to_cold_profiles():
    rng = random.Random(1513)
    for genus in (2, 3):
        tri = TRIS[genus]
        for system in _systems(rng, tri):
            got = cut.cut_profile(tri, system)
            want = list(got)
            got.append((99, 99))  # callers may mutate what they get back
            got.sort()
            shuffled = rng.sample(system, len(system)) + system[:1]
            assert cut.cut_profile(tri, shuffled) == want
            _clear()
            assert cut.cut_profile(tri, system) == want
            union = cut.disjoint_union(system)
            assert want == cut.CutComplex(tri, union).profile()
            assert sum(2 - 2 * h - b for h, b in want) == 2 - 2 * genus


def test_curves_from_weights_equal_cold_curves():
    rng = random.Random(1514)
    for genus in (2, 3):
        tri = TRIS[genus]
        curves = _pool(rng, tri, 6)
        unions = [cut.disjoint_union(s) for s in _systems(rng, tri)]
        for c in curves + unions:
            got = CurveClass.from_weights(tri, c.weights)
            assert got == c
            assert CurveClass.from_weights(tri, list(c.weights)) is got
            _clear()
            cold = CurveClass.from_weights(tri, c.weights)
            assert cold == got and cold.words == c.words


def test_from_weights_rejects_weights_equal_to_cached_ints():
    tri = TRIS[2]
    a = handle_curves(tri)[0]
    assert CurveClass.from_weights(tri, a.weights) == a
    for weights in ([float(x) for x in a.weights], [bool(x) for x in a.weights]):
        with pytest.raises(ValueError, match="weights must be ints"):
            CurveClass.from_weights(tri, weights)


def test_from_weights_raises_every_time():
    # The summed weights of the disjoint seed-104 pair (see the strict
    # xfail in test_cut_profiles.py) trace a different multicurve.
    tri = TRIS[2]
    a = CurveClass.from_weights(tri, (3, 3, 4, 2, 2, 1, 4, 0, 2))
    b = CurveClass.from_weights(tri, (4, 0, 2, 4, 4, 8, 8, 6, 4))
    summed = tuple(x + y for x, y in zip(a.weights, b.weights))
    held = _from_weights.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="round trip failed"):
            CurveClass.from_weights(tri, summed)
    assert _from_weights.cache_info().currsize == held


def _bounded_memos(module):
    """The `lru_cache`s of `MEMO_ENTRIES` entries defined in a module,
    at its top level or in its classes."""
    owners = [module] + [
        c for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__
    ]
    for owner in owners:
        for obj in vars(owner).values():
            fn = getattr(obj, "__func__", obj)  # unwrap class- and staticmethods
            params = getattr(fn, "cache_parameters", None)
            if (
                params is not None
                and fn.__module__ == module.__name__
                and params()["maxsize"] == MEMO_ENTRIES
            ):
                yield fn


def test_conftest_lists_every_bounded_memo():
    # A memo missing from `MEMOS` would keep its entries from one test
    # to the next, so the work a test counts would depend on test order.
    def names(memos):
        return sorted(f"{fn.__module__}.{fn.__qualname__}" for fn in memos)

    found = []
    for info in pkgutil.iter_modules(cbgraph.__path__):
        found += _bounded_memos(importlib.import_module(f"cbgraph.{info.name}"))
    assert names(found) == names(set(MEMOS)) == names(MEMOS)
    assert set(found) == set(MEMOS)
