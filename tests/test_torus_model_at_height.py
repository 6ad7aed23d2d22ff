"""Torus-model slope images of large height meet as the Farey formula says.

`tests/test_torus_model.py` checks every slope of height at most 3.
Here hypothesis draws pairs of slopes of height 4 to `MAX_HEIGHT`
(height max(|p|, q)), realizes them as curves of the embedded
punctured-torus model at genus 2 and on the middle handle at genus 3,
and requires the curve intersection number to be |ps - qr|, the
algebraic count to equal it up to sign, and both images to lie inside
the torus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import ops
from cbgraph.farey import enumerate_slopes, intersect_cc
from cbgraph.model import EmbeddedToriModel
from cbgraph.polygon import handle_curves
from cbgraph.surface import standard_triangulation

MAX_HEIGHT = 40
MODELS = {
    2: EmbeddedToriModel(*handle_curves(standard_triangulation(2))[:2]),
    3: EmbeddedToriModel(*handle_curves(standard_triangulation(3))[2:4]),
}
# The boundary of each model's punctured torus.
BOUNDARY = {g: ops.band_sum(m.alpha, m.beta) for g, m in MODELS.items()}
TALL = sorted(enumerate_slopes(MAX_HEIGHT) - enumerate_slopes(3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3)), s=st.sampled_from(TALL), t=st.sampled_from(TALL))
def test_tall_slope_images_meet_in_farey_points(genus, s, t):
    model = MODELS[genus]
    a, b = model.image(s), model.image(t)
    for c in (a, b):
        assert c.is_connected and not c.is_separating
        assert ops.intersect(c, BOUNDARY[genus]) == 0
    want = intersect_cc(s, t)
    assert ops.intersect(a, b) == want
    assert abs(ops.algebraic_intersect(a, b)) == want
    assert (a == b) == (s == t)
