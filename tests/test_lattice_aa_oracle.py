"""The linear-form arc-arc oracle counts what the segment sweep counts.

The suite's `farey-oracle` check exhausts the arc pairs of height at
most 6 and samples 500 pairs of height at most 20; both ranges are
compared here with the point-by-point reference.
"""

import random

from lattice_aa_oracle import lattice_aa as reference_aa

from cbgraph.farey import ArcSlope, enumerate_slopes, intersect_aa
from cbgraph.oracles import lattice_aa


def _arcs(height):
    return [ArcSlope(s.p, s.q) for s in sorted(enumerate_slopes(height))]


def test_every_pair_up_to_height_6():
    arcs = _arcs(6)
    for x in arcs:
        for y in arcs:
            assert lattice_aa(x, y) == reference_aa(x, y), (x, y)


def test_seeded_pairs_at_height_20():
    rng = random.Random(1508)
    arcs = _arcs(20)
    crossing = 0
    for _ in range(150):
        x, y = rng.choice(arcs), rng.choice(arcs)
        got = lattice_aa(x, y)
        assert got == reference_aa(x, y) == intersect_aa(x, y), (x, y)
        crossing += got > 20
    assert crossing > 50
