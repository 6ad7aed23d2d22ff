"""A neighbourhood's boundary classes are built on first read, unchanged.

`NeighborhoodProfile.boundary_classes` keeps the essential boundary
words and builds their classes only when the field is read.  The
classes must equal the eager construction, sorted `from_texts` of the
essential circles, and a two-curve punctured-torus test, which reads
only connectivity, genus and the boundary count, must build none.
"""

import random

import dehn_oracle
import pytest

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.polygon import chain_connector, curve_from_chords, handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation


@pytest.fixture
def built(monkeypatch):
    """The classes `CurveClass.from_texts` returns, in call order."""
    out = []
    kept = CurveClass.__dict__["from_texts"]

    def counted(cls, tri, texts):
        c = kept.__func__(cls, tri, texts)
        out.append(c)
        return c

    monkeypatch.setattr(CurveClass, "from_texts", classmethod(counted))
    return out


def _eager(curves):
    """Sorted classes of the essential boundary circles, drawn afresh."""
    curves = sorted(set(curves))
    tri = curves[0].tri
    reduced = Reduced(Drawing(tri, curves))
    words = reduced.boundary_words()
    essential = [w for w in words if not dehn_oracle.loop_is_trivial(tri, w)]
    return sorted({CurveClass.from_texts(tri, [w]) for w in essential})


def _unions(rng, tri):
    """Single curves and seeded pairs of twisted generators."""
    g = tri.genus
    gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]
    pool = set(gens)
    while len(pool) < len(gens) + 4:
        c = rng.choice(gens)
        for _ in range(rng.randint(1, 2)):
            c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
        pool.add(c)
    pool = sorted(pool)
    pairs = {tuple(sorted(rng.sample(pool, 2))) for _ in range(12)}
    return [[c] for c in pool[:4]] + sorted(pairs)


def test_classes_equal_the_eager_construction(built):
    rng = random.Random(1510)
    seen = {"connected": 0, "disconnected": 0, "single": 0}
    for g in (2, 3, 4):
        for curves in _unions(rng, standard_triangulation(g)):
            ops.LAST_PAIR.clear()
            prof = ops.neighborhood_profile(curves)
            del built[:]
            if not prof.connected:
                assert prof.boundary_classes is None and not built
                seen["disconnected"] += 1
                continue
            seen["single" if len(curves) == 1 else "connected"] += 1
            assert not built
            got = prof.boundary_classes
            # One class per essential circle on the first read, none after.
            assert len(built) == prof.boundary_components
            assert prof.boundary_classes is got
            assert len(built) == prof.boundary_components
            assert got == _eager(curves)
    assert min(seen.values()) >= 4, seen


def test_two_curve_torus_test_builds_no_class(built):
    tri = standard_triangulation(2)
    a, b, a1, _ = handle_curves(tri)
    conn = chain_connector(tri, 0)
    pairs = [(a, b), (a, a1), (ops.twist(a1, conn, 1), ops.twist(b, conn, -1))]
    del built[:]
    answers = [ops.common_punctured_torus(pair) for pair in pairs]
    assert answers[:2] == [True, False]
    assert not built


def test_three_curve_torus_test_reads_the_boundary_class(built):
    # The three-curve case of `test_common_punctured_torus_cases`: the
    # third curve is tested against the boundary of the first pair's torus.
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [0])
    b = curve_from_chords(tri, [1])
    c = ops.twist(b, a, 1)
    boundary = ops.band_sum(a, b)
    del built[:]
    assert ops.common_punctured_torus([a, b, c])
    assert boundary in built
