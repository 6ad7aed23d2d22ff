"""The small-body meridian rule against the homology span test.

`cbgraph.cb.meridian_of_small` decides whether a nonseparating curve
lies in the punctured-torus side of a disjoint separating curve by one
algebraic intersection; `cut_oracle.meridian_of_small` decides it by
rational span membership of signed edge-crossing vectors.
"""

import random

import cut_oracle

from cbgraph import cut, ops
from cbgraph.cb import meridian_of_small
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _split_2_2(tri):
    # The boundary of a neighbourhood of the chain b0, a0, c0, a1.
    h = handle_curves(tri)
    c0 = chain_connector(tri, 0)
    chain = [cut.disjoint_union([h[1], c0]), cut.disjoint_union([h[0], h[2]])]
    return ops.neighborhood_profile(chain).boundary_classes[0]


def _curves(tri):
    """Nonseparating generators, and separating curves cutting off tori
    (plus the 2 + 2 split at genus 4)."""
    h = handle_curves(tri)
    nonsep = h + [chain_connector(tri, k) for k in range(tri.genus - 1)]
    sep = {ops.band_sum(h[2 * k], h[2 * k + 1]) for k in range(tri.genus)}
    if tri.genus == 4:
        sep.add(_split_2_2(tri))
    return nonsep, sorted(sep)


def _assert_agree(a, c):
    got = meridian_of_small(a, c)
    assert got == cut_oracle.meridian_of_small(a, c), (a.to_json(), c.to_json())
    return got


def test_fixed_cases():
    # Genus 2: both sides of a separating curve are punctured tori.
    tri = TRIS[2]
    h = handle_curves(tri)
    w = ops.band_sum(h[0], h[1])
    assert all(_assert_agree(a, w) for a in h)
    # Genus 3: one punctured-torus side, with a on either side.
    tri = TRIS[3]
    h = handle_curves(tri)
    c = ops.band_sum(h[2], h[3])
    assert cut.CutComplex(tri, c).profile() == [(1, 1), (2, 1)]
    assert _assert_agree(h[2], c) and _assert_agree(h[3], c)
    assert not _assert_agree(h[0], c) and not _assert_agree(h[5], c)
    # Genus 4, split 2 + 2: no punctured-torus side at all.
    tri = TRIS[4]
    c = _split_2_2(tri)
    assert cut.CutComplex(tri, c).profile() == [(2, 1), (2, 1)]
    nonsep, _ = _curves(tri)
    assert not any(_assert_agree(a, c) for a in nonsep)


def test_agrees_with_the_span_test_on_twist_images():
    rng = random.Random(811)
    answers = {True: 0, False: 0}
    for tri in TRIS.values():
        nonsep, sep = _curves(tri)
        for _ in range(6):
            word = [
                (rng.choice(nonsep), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 3))
            ]

            def push(c):
                for along, p in word:
                    c = ops.twist(c, along, p)
                return c

            moved_sep = [push(c) for c in sep]
            for a in map(push, nonsep):
                for c in moved_sep:
                    if ops.intersect(a, c) == 0:
                        answers[_assert_agree(a, c)] += 1
    assert min(answers.values()) > 0
