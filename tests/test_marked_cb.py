import random

import pytest

from cbgraph import cb, cut, ops
from cbgraph.cb import CBType, Containment, MarkedCB, contains, meridian_of_small, small_cb
from cbgraph.polygon import curve_from_chords
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A = curve_from_chords(TRI, [0])
B = curve_from_chords(TRI, [1])
C = curve_from_chords(TRI, [4])
D = curve_from_chords(TRI, [5])
W = ops.band_sum(A, B)


def test_dual_curve_meets_once_and_avoids():
    for c in (A, B, C, D):
        d = cut.dual_curve(c, [])
        assert ops.intersect(c, d) == 1
    wcd = ops.band_sum(C, D)
    d = cut.dual_curve(A, [C, wcd])
    assert ops.intersect(A, d) == 1
    assert ops.intersect(C, d) == 0
    assert ops.intersect(wcd, d) == 0
    with pytest.raises(ValueError):
        cut.dual_curve(W, [])


def test_small_body_heights():
    # Separating base: height 1; nonseparating: height 2 via the
    # inserted punctured-torus boundary.
    sw = small_cb(W)
    assert sw.derived_type == CBType(2, (1, 1))
    assert sw.height == 1 == len(sw.system)
    sa = small_cb(A)
    assert sa.derived_type == CBType(2, (1,))
    assert sa.height == 2 == len(sa.system)
    assert A in sa.system
    extra = next(c for c in sa.system if c != A)
    assert extra.is_separating
    assert meridian_of_small(A, extra)

    g3 = standard_triangulation(3)
    a3 = curve_from_chords(g3, [0])
    s3 = small_cb(a3)
    assert s3.derived_type == CBType(3, (2,))
    assert s3.height == 2


def test_marked_handlebody_and_trivial():
    hb = MarkedCB(TRI, [A, C])
    assert hb.derived_type == CBType(2, ())
    assert hb.height == 3 == len(hb.system)
    triv = MarkedCB(TRI, [])
    assert triv.derived_type.is_trivial
    assert triv.height == 0


def test_standard_form_is_order_insensitive():
    assert MarkedCB(TRI, [A, W]) == MarkedCB(TRI, [W, A])
    assert MarkedCB(TRI, [C, A]) == MarkedCB(TRI, [A, C])


def test_meridians_of_small_bodies():
    assert meridian_of_small(A, A)
    assert meridian_of_small(A, W)
    assert meridian_of_small(A, ops.band_sum(C, D))
    assert not meridian_of_small(A, B)
    assert not meridian_of_small(A, C)
    assert not meridian_of_small(A, ops.twist(A, B, 1))
    # Separating base admits only itself.
    assert meridian_of_small(W, W)
    assert not meridian_of_small(W, A)
    assert not meridian_of_small(W, ops.band_sum(C, D))


def test_band_sums_are_always_meridians():
    rng = random.Random(71)
    for _ in range(5):
        a = A
        b = B
        for _ in range(rng.randint(0, 2)):
            along = rng.choice((A, B, C))
            p = rng.choice((1, -1))
            a, b = ops.twist(a, along, p), ops.twist(b, along, p)
        assert ops.intersect(a, b) == 1
        assert meridian_of_small(a, ops.band_sum(a, b))


def test_meridian_is_mapping_class_invariant():
    rng = random.Random(73)
    cases = [(A, W), (A, B), (A, C), (W, A), (A, ops.band_sum(C, D))]
    for _ in range(3):
        word = [
            (rng.choice((A, B, C, D)), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        ]

        def push(c):
            for along, p in word:
                c = ops.twist(c, along, p)
            return c

        for a, c in cases:
            assert meridian_of_small(push(a), push(c)) == meridian_of_small(a, c)


def test_containment_chain():
    triv = MarkedCB(TRI, [])
    sb = small_cb(W)
    sa = small_cb(A)
    assert contains(triv, sb) is Containment.TRUE
    assert contains(sb, sa) is Containment.TRUE
    assert contains(triv, sa) is Containment.TRUE
    assert contains(sa, sb) is Containment.FALSE
    assert contains(small_cb(C), sa) is Containment.FALSE
    assert contains(sa, sa) is Containment.TRUE


def test_containment_monotone_in_height():
    bodies = [MarkedCB(TRI, []), small_cb(W), small_cb(A), small_cb(C)]
    for c in bodies:
        for d in bodies:
            if contains(c, d) is Containment.TRUE and c != d:
                assert c.height < d.height


def test_marked_cb_serialization():
    for body in (small_cb(A), small_cb(W), MarkedCB(TRI, [A, C])):
        back = MarkedCB.from_json(body.to_json())
        assert back == body
        assert back.derived_type == body.derived_type
