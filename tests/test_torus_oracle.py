"""The punctured-torus test of three or more curves against the region rule.

`ops.common_punctured_torus` decides a third or later curve by its
intersection with the boundary of the first pair's neighbourhood; the
oracle in `torus_oracle` also cuts the surface along that boundary and
compares regions.  On seeded triples and quadruples at genus 2 and 3
both must agree, and enough cases must get past the pair checks to the
boundary test, with both answers, for the agreement to mean something.
"""

import random

import torus_oracle

from cbgraph import ops
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation


def _pool(rng, tri, size):
    """Nonseparating twisted generators, sorted."""
    gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(tri.genus - 1)]
    pool = set(gens)
    while len(pool) < size:
        c = rng.choice(gens)
        for _ in range(rng.randint(1, 2)):
            c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
        if not c.is_separating:
            pool.add(c)
    return sorted(pool)


def _reaches_boundary_test(curves):
    """Whether every pair crosses and the first pair fills a punctured torus."""
    curves = sorted(set(curves))
    for i, x in enumerate(curves):
        for y in curves[i + 1 :]:
            if ops.intersect(x, y) == 0:
                return False
    prof = ops.neighborhood_profile(curves[:2])
    return prof.connected and prof.genus == 1 and prof.boundary_components == 1


def test_boundary_test_agrees_with_the_region_rule():
    rng = random.Random(1508)
    reached = {True: 0, False: 0}
    for g in (2, 3):
        pool = _pool(rng, standard_triangulation(g), 24)
        pairs = [
            (a, b)
            for i, a in enumerate(pool)
            for b in pool[i + 1 :]
            if ops.common_punctured_torus([a, b])
        ]
        for a, b in rng.sample(pairs, 60):
            # Curves of the pair's torus, to make the boundary test pass.
            inside = [ops.twist(b, a, rng.choice((1, -1))), ops.twist(a, b, rng.choice((1, -1)))]
            for size in (3, 4, 3, 4, 3, 4):
                extra = [rng.choice(inside if rng.random() < 0.5 else pool) for _ in range(size - 2)]
                curves = [a, b] + extra
                if len(set(curves)) != size:
                    continue
                got = ops.common_punctured_torus(curves)
                assert got == torus_oracle.common_punctured_torus(curves), curves
                if _reaches_boundary_test(curves):
                    reached[got] += 1
    assert sum(reached.values()) >= 200 and min(reached.values()) >= 50, reached
