import pytest

from cbgraph import ops
from cbgraph.farey import Slope, enumerate_slopes, intersect_cc
from cbgraph.model import EmbeddedToriModel
from cbgraph.polygon import handle_curves
from cbgraph.surface import standard_triangulation

MODEL = EmbeddedToriModel(*handle_curves(standard_triangulation(2))[:2])
# The boundary of the model's punctured torus.
W = ops.band_sum(MODEL.alpha, MODEL.beta)
SLOPES = sorted(enumerate_slopes(3))


def test_model_base_curves():
    assert ops.intersect(MODEL.alpha, MODEL.beta) == 1
    assert MODEL.image(Slope(1, 0)) == MODEL.alpha
    assert MODEL.image(Slope(0, 1)) == MODEL.beta


def test_images_are_distinct_nonseparating_and_in_the_torus():
    seen = {}
    for s in SLOPES:
        c = MODEL.image(s)
        assert c not in seen.values(), (s, seen)
        seen[s] = c
        assert c.is_connected
        assert not c.is_separating
        # Inside the punctured torus: disjoint from its boundary.
        assert ops.intersect(c, W) == 0


def test_images_realize_farey_intersections():
    images = {s: MODEL.image(s) for s in SLOPES}
    for i, s in enumerate(SLOPES):
        for t in SLOPES[i + 1 :]:
            assert ops.intersect(images[s], images[t]) == intersect_cc(s, t), (
                s,
                t,
            )


def test_images_have_coherent_orientations():
    # Curves in one punctured torus meet with a single crossing sign.
    images = {s: MODEL.image(s) for s in SLOPES}
    for i, s in enumerate(SLOPES):
        for t in SLOPES[i + 1 :]:
            geo = ops.intersect(images[s], images[t])
            assert abs(ops.algebraic_intersect(images[s], images[t])) == geo


def test_image_respects_twist_action():
    # T_alpha acts as (p, q) -> (p + q, q) on slope images.
    for s in SLOPES:
        p, q = s.p, s.q
        expect = MODEL.image(Slope(p + q, q))
        assert ops.twist(MODEL.image(s), MODEL.alpha, 1) == expect


def test_pairs_share_a_punctured_torus():
    for s in (Slope(1, 1), Slope(2, 1), Slope(1, 2), Slope(-1, 1)):
        assert ops.common_punctured_torus(
            [MODEL.alpha, MODEL.beta, MODEL.image(s)]
        )
