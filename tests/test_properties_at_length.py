"""Identities of the curve operations on curves of 10^3 letters and more.

The long curves are rungs of the scale benchmark's twist ladders: the
dual curve b_k of handle k pushed alternately by T_{a_k} and
T_{conn_k}^-1, where conn_k joins handles k and k+1.  Each ladder gives
its first two rungs of at least `LETTERS` letters (1,049 to 2,611), so
canonical forms, drawings and bigon removal all run on long words.
Checked at genus 2-4: twisting a rung by p and then by -p along a
generator returns the rung, and the algebraic intersection number of a
rung with a short twisted generator is bounded by the geometric one
and has its parity.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import ops
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

LETTERS = 1000
TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(genus):
    tri = TRIS[genus]
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(genus - 1)]


@lru_cache(maxsize=None)
def _rungs(genus):
    out = []
    hs = handle_curves(TRIS[genus])
    for k in range(genus - 1):
        steps = ((hs[2 * k], 1), (chain_connector(TRIS[genus], k), -1))
        c, n, long = hs[2 * k + 1], 0, []
        while len(long) < 2:
            c = ops.twist(c, *steps[n % 2])
            n += 1
            if len(c.word) >= LETTERS:
                long.append(c)
        out.extend(long)
    return tuple(out)


genera = st.sampled_from((2, 3, 4))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(genus=genera, data=st.data())
def test_twist_inverse_at_length(genus, data):
    c = data.draw(st.sampled_from(_rungs(genus)), label="rung")
    d = data.draw(st.sampled_from(_generators(genus)), label="along")
    p = data.draw(st.sampled_from((1, -1, 2, -3)), label="power")
    assert ops.twist(ops.twist(c, d, p), d, -p) == c


@settings(max_examples=30, deadline=None, derandomize=True)
@given(genus=genera, data=st.data())
def test_algebraic_bounded_by_geometric_at_length(genus, data):
    c = data.draw(st.sampled_from(_rungs(genus)), label="rung")
    gens = st.sampled_from(_generators(genus))
    other = data.draw(gens, label="base")
    for d, p in data.draw(st.lists(st.tuples(gens, st.sampled_from((1, -1, 2))), max_size=3)):
        other = ops.twist(other, d, p)
    alg = ops.algebraic_intersect(c, other)
    geo = ops.intersect(c, other)
    assert abs(alg) <= geo
    assert (geo - alg) % 2 == 0
