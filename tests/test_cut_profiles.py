import random

import pytest
from cut_oracle import SpanCutComplex, signed_weights

from cbgraph import cut, ops
from cbgraph.curves import CurveClass
from cbgraph.polygon import curve_from_chords
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A = curve_from_chords(TRI, [0])
B = curve_from_chords(TRI, [1])
C = curve_from_chords(TRI, [4])
D = curve_from_chords(TRI, [5])
W = ops.band_sum(A, B)


def test_empty_system_reproduces_the_surface():
    assert cut.cut_profile(TRI, []) == [(2, 0)]
    assert cut.cut_profile(standard_triangulation(3), []) == [(3, 0)]


def test_single_nonseparating_cut():
    for c in (A, B, C, D):
        assert cut.cut_profile(TRI, [c]) == [(1, 2)]


def test_single_separating_cut():
    assert cut.cut_profile(TRI, [W]) == [(1, 1), (1, 1)]
    assert cut.cut_profile(TRI, [ops.band_sum(C, D)]) == [(1, 1), (1, 1)]


def test_two_handle_cuts():
    assert cut.cut_profile(TRI, [A, C]) == [(0, 4)]
    assert cut.cut_profile(TRI, [W, A]) == [(0, 3), (1, 1)]
    assert cut.cut_profile(TRI, [W, A, C]) == [(0, 3), (0, 3)]


def test_duplicates_and_disjointness_validation():
    assert cut.cut_profile(TRI, [A, A]) == cut.cut_profile(TRI, [A])
    with pytest.raises(ValueError):
        cut.cut_profile(TRI, [A, B])


def test_chi_bookkeeping_over_random_systems():
    # Cutting along circles preserves Euler characteristic:
    # sum over regions of (2 - 2h - b) must equal 2 - 2g.
    rng = random.Random(57)
    basis = [A, B, C, D, W]
    for _ in range(12):
        word = [
            (rng.choice(basis), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 2))
        ]

        def push(c):
            for along, p in word:
                c = ops.twist(c, along, p)
            return c

        system = rng.choice(
            [[A], [W], [A, C], [W, A], [A, C, W], []]
        )
        moved = [push(c) for c in system]
        prof = cut.cut_profile(TRI, moved)
        assert sum(2 - 2 * h - b for h, b in prof) == -2
        assert prof == cut.cut_profile(TRI, system)


def test_side_containing_separates_the_handles():
    cw = SpanCutComplex(TRI, W)
    side_a = cw.side_containing(A)
    side_b = cw.side_containing(B)
    side_c = cw.side_containing(C)
    side_d = cw.side_containing(D)
    assert side_a == side_b
    assert side_c == side_d
    assert side_a != side_c


def test_side_containing_validation():
    cw = SpanCutComplex(TRI, W)
    with pytest.raises(ValueError):
        cw.side_containing(W)
    ca = SpanCutComplex(TRI, A)
    with pytest.raises(ValueError):
        ca.side_containing(C)


def test_signed_weights_vanish_exactly_for_separating():
    for c in (A, B, C, D):
        assert any(signed_weights(c))
    assert not any(signed_weights(W))


def test_region_containing_on_a_two_component_system():
    # W cuts off the torus that holds A and B; cutting along A as well
    # leaves a pair of pants, the region on both sides of A, beside the
    # torus across W that holds C and D.
    cc = cut.CutComplex(TRI, cut.disjoint_union([W, A]))
    for c in (W, A):
        with pytest.raises(ValueError, match="component of the system itself"):
            cc.region_containing(c)
    with pytest.raises(ValueError, match="system is not pairwise disjoint"):
        cc.region_containing(B)
    (pants,) = set(cc.sides_of(A))
    (torus,) = set(cc.sides_of(W)) - {pants}
    assert (cc.region_genus(pants), cc.region_genus(torus)) == (0, 1)
    for c in (C, D, ops.twist(C, D, 1)):
        assert cc.region_containing(c) == torus


@pytest.mark.parametrize("genus", range(2, 13))
def test_gluings_count_along_the_second_incidence(genus):
    # `nonseparating_in_region` counts every gluing +1 along the letter
    # of the incidence it stores, which is never the edge's first.
    tri = standard_triangulation(genus)
    gluings = cut.CutComplex(tri, None).gluings
    assert len(gluings) == tri.num_edges
    for _, _, e, t2, s2 in gluings:
        assert tri.sides[e][1] == (t2, s2)
        assert not tri.first[3 * t2 + s2]


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="summed normal weights of disjoint classes need not trace their union",
)
def test_disjoint_union_of_classes_drawn_crossing():
    # From `cbgraph run --suite projection-diameter --seed 104`: the two
    # classes are disjoint, but their normal representatives cross, so
    # the summed weights trace a different multicurve and the round
    # trip in `from_words` fails.
    a = CurveClass.from_weights(TRI, (3, 3, 4, 2, 2, 1, 4, 0, 2))
    b = CurveClass.from_weights(TRI, (4, 0, 2, 4, 4, 8, 8, 6, 4))
    assert ops.intersect(a, b) == 0
    union = cut.disjoint_union([a, b])
    assert sorted(union.words) == sorted(a.words + b.words)
