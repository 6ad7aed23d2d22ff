import random

import pytest

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.polygon import chain_connector, curve_from_chords, handle_curves
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A = curve_from_chords(TRI, [0])
B = curve_from_chords(TRI, [1])
C = curve_from_chords(TRI, [4])
D = curve_from_chords(TRI, [5])


def _random_twist(rng, c, length):
    for _ in range(length):
        along = rng.choice((A, B, C, D))
        c = ops.twist(c, along, rng.choice((1, -1)))
    return c


def test_handle_curve_intersections():
    assert ops.intersect(A, B) == 1
    assert ops.intersect(C, D) == 1
    for x in (A, B):
        for y in (C, D):
            assert ops.intersect(x, y) == 0
    for x in (A, B, C, D):
        assert ops.intersect(x, x) == 0


def test_intersect_symmetric():
    rng = random.Random(11)
    for _ in range(6):
        x = _random_twist(rng, rng.choice((A, B, C)), rng.randint(0, 2))
        y = _random_twist(rng, rng.choice((B, C, D)), rng.randint(0, 2))
        assert ops.intersect(x, y) == ops.intersect(y, x)


def test_algebraic_bounded_by_geometric():
    rng = random.Random(13)
    for _ in range(6):
        x = _random_twist(rng, A, rng.randint(0, 2))
        y = _random_twist(rng, B, rng.randint(0, 2))
        alg = ops.algebraic_intersect(x, y)
        geo = ops.intersect(x, y)
        assert abs(alg) <= geo
        assert (geo - alg) % 2 == 0


def test_twist_round_trip_and_identity():
    rng = random.Random(17)
    for c in (B, C):
        for p in (1, -2, 3):
            img = ops.twist(c, A, p)
            assert ops.twist(img, A, -p) == c
    # Twisting along a disjoint curve does nothing.
    assert ops.twist(A, C, 5) == A
    assert ops.twist(A, A, 3) == A
    assert ops.twist(_random_twist(rng, B, 2), D, 0) is not None


def test_twist_powers_compose():
    for p in (2, 3):
        step = B
        for _ in range(p):
            step = ops.twist(step, A, 1)
        assert step == ops.twist(B, A, p)


def test_twist_intersection_growth_in_handle():
    # In the handle torus i(T_a^n b, b) = |n| * i(a, b)^2 = |n|.
    for n in (-3, -1, 1, 2, 4):
        assert ops.intersect(ops.twist(B, A, n), B) == abs(n)
        assert ops.intersect(ops.twist(B, A, n), A) == 1


@pytest.mark.parametrize(
    "genus, steps, letters, crossings",
    [(2, 6, 111, 13), (3, 6, 123, 13), (3, 7, 139, 21), (2, 8, 300, 34), (3, 8, 333, 34)],
)
def test_twist_identity_on_ladder_curves(genus, steps, letters, crossings):
    # Alternate T_a and T_conn^-1 from the dual curve b of the first
    # handle; the next twist curve d meets the rung c in a Fibonacci
    # number of points, and i(T_d^p(c), c) = |p| * i(d, c)^2 needs
    # hundreds to thousands of bigons removed.
    tri = standard_triangulation(genus)
    hs = handle_curves(tri)
    ladder = ((hs[0], 1), (chain_connector(tri, 0), -1))
    c = hs[1]
    for n in range(steps):
        c = ops.twist(c, *ladder[n % 2])
    d, p = ladder[steps % 2]
    assert len(c.word) == letters
    assert ops.intersect(d, c) == crossings
    assert ops.intersect(ops.twist(c, d, p), c) == abs(p) * crossings**2


def test_band_sum_is_separating_boundary():
    w = ops.band_sum(A, B)
    assert w.is_separating
    assert w.is_connected
    assert ops.intersect(w, A) == 0
    assert ops.intersect(w, B) == 0
    assert ops.band_sum(B, A) == w
    assert ops.intersect(w, C) == 0
    assert ops.intersect(ops.band_sum(C, D), A) == 0


def test_band_sum_requires_single_crossing():
    with pytest.raises(ValueError):
        ops.band_sum(A, C)
    with pytest.raises(ValueError):
        ops.band_sum(ops.twist(B, A, 2), B)


def test_neighborhood_profile_single_curve():
    prof = ops.neighborhood_profile([A])
    assert prof.connected
    assert prof.genus == 0
    # An annulus around a nonseparating curve has two essential sides.
    assert prof.boundary_components == 2
    assert prof.boundary_classes == [A]


def test_neighborhood_profile_separating_curve():
    w = ops.band_sum(A, B)
    prof = ops.neighborhood_profile([w])
    assert prof.connected
    assert prof.genus == 0
    assert prof.boundary_components == 2
    assert prof.boundary_classes == [w]


def test_neighborhood_profile_dual_pair():
    prof = ops.neighborhood_profile([A, B])
    assert prof.connected
    assert prof.genus == 1
    assert prof.boundary_components == 1
    assert prof.boundary_classes == [ops.band_sum(A, B)]


def test_neighborhood_profile_disjoint_pair():
    prof = ops.neighborhood_profile([A, C])
    assert not prof.connected
    assert prof.genus is None


def test_neighborhood_profile_rejects_more_than_two_curves():
    with pytest.raises(ValueError):
        ops.neighborhood_profile([A, B, C])
    # Repeats count once.
    assert ops.neighborhood_profile([A, B, A, B]).genus == 1


def test_common_punctured_torus_cases():
    assert ops.common_punctured_torus([A])
    assert ops.common_punctured_torus([A, A])
    assert ops.common_punctured_torus([A, B])
    assert ops.common_punctured_torus([A, B, ops.twist(B, A, 1)])
    assert not ops.common_punctured_torus([A, C])
    assert not ops.common_punctured_torus([A, B, C])
    with pytest.raises(ValueError):
        ops.common_punctured_torus([A, ops.band_sum(A, B)])


def test_orbit_growth_and_membership():
    orb0 = ops.orbit([A], [B], 0)
    assert orb0 == [A]
    orb1 = ops.orbit([A], [B], 1)
    assert A in orb1 and ops.twist(A, B, 1) in orb1 and ops.twist(A, B, -1) in orb1
    assert len(orb1) == 3
    orb2 = ops.orbit([A], [A, B], 2)
    assert len(orb2) > len(orb1)
    assert set(orb1) <= set(orb2)


def test_predicates_are_twist_invariant():
    # Applying one mapping class to both arguments preserves everything.
    rng = random.Random(41)
    w = ops.band_sum(A, B)
    pairs = [(A, B), (A, C), (B, w), (ops.twist(B, A, 2), C)]
    for _ in range(4):
        word = [
            (rng.choice((A, B, C, D)), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        ]

        def push(c):
            for along, p in word:
                c = ops.twist(c, along, p)
            return c

        for x, y in pairs:
            fx, fy = push(x), push(y)
            assert ops.intersect(fx, fy) == ops.intersect(x, y)
            assert fx.is_separating == x.is_separating
            assert fy.is_separating == y.is_separating
        fa, fb = push(A), push(B)
        assert ops.common_punctured_torus([fa, fb])
        assert ops.band_sum(fa, fb) == push(w)


def test_twist_along_a_disjoint_drawing_returns_the_curve(monkeypatch):
    # a_0 and a_1 are drawn without a crossing, so twisting one along the
    # other builds no words, as ints or as text.
    a0, _, a1, _ = handle_curves(TRI)
    built = []

    def counted(name):
        kept = getattr(CurveClass, name).__func__

        def build(cls, tri, words):
            built.append(words)
            return kept(cls, tri, words)

        return classmethod(build)

    for name in ("from_words", "from_texts"):
        monkeypatch.setattr(CurveClass, name, counted(name))
    for p in (1, -2):
        assert ops.twist(a0, a1, p) is a0
    assert built == []
    assert ops.twist(B, A, 1) != B
    assert len(built) == 1
