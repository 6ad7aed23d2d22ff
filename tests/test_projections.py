import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbgraph import ops, projections as pj, suites
from cbgraph.cb import MarkedCB, small_cb
from cbgraph.curves import CurveClass
from cbgraph.farey import Slope, enumerate_slopes, farey_distance
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A, B, C, D = handle_curves(TRI)
E = chain_connector(TRI, 0)
W = ops.band_sum(A, B)
SEL_L = pj.SideSelector(W, "left")
SEL_R = SEL_L.other()
BASIS_L = pj.TorusBasis(SEL_L)


def _multi_arc_curve(seed, min_crossings=4):
    rng = random.Random(seed)
    cur = E
    for _ in range(40):
        cur = ops.twist(cur, rng.choice([A, B, C, D, E]), rng.choice([1, -1]))
        if ops.intersect(cur, W) >= min_crossings:
            return cur
    raise AssertionError("no multi-arc curve found")


def test_side_selector_validation():
    with pytest.raises(ValueError):
        pj.SideSelector(A, "left")
    with pytest.raises(ValueError):
        pj.SideSelector(W, "top")
    assert SEL_L.genus == 1 == SEL_R.genus
    assert SEL_L.region != SEL_R.region
    assert SEL_R.other().region == SEL_L.region
    # The two sides share one cut complex.
    assert SEL_R.complex is SEL_L.complex


@pytest.mark.parametrize("pair, genera", [((2, 3), (1, 2)), ((0, 1), (2, 1))])
def test_named_sides_of_separating_band_sums(pair, genera):
    # Pins which side `CutComplex._arc_cells` lists first, so which side
    # `--side left` names: a swap of the two cells on either side of a
    # passage swaps the first pair here and leaves the second alone.
    h = handle_curves(standard_triangulation(3))
    sel = pj.SideSelector(ops.band_sum(*(h[k] for k in pair)), "left")
    assert (sel.genus, sel.other().genus) == genera


def test_project_disjoint_cases():
    sides = [pj.project(SEL_L, A), pj.project(SEL_R, A)]
    assert sorted(len(s) for s in sides) == [0, 1]
    assert set.union(*sides) == {A}
    # A and B share a side (they intersect once through one handle).
    in_a = SEL_L if pj.project(SEL_L, A) else SEL_R
    assert pj.project(in_a, B) == {B}
    assert pj.project(in_a.other(), C) == {C}
    assert pj.project(SEL_L, W) == set() == pj.project(SEL_R, W)


def test_project_one_arc():
    assert ops.intersect(E, W) == 2
    seen = []
    for sel in (SEL_L, SEL_R):
        ps = pj.project(sel, E)
        # The two resolutions of a single arc are parallel in a torus
        # side, so the set collapses to one curve.
        assert len(ps) == 1
        (m,) = ps
        assert m != W
        assert ops.intersect(m, W) == 0
        assert sel.complex.region_containing(m) == sel.region
        seen.append(m)
    assert seen[0] != seen[1]


def test_project_matches_neighborhood_oracle():
    # For a single arc per side, the boundary circles of N(a ∪ b) split
    # into the per-arc neighborhood circles, so the ribbon tracer gives
    # an independent computation of the projection.
    bs = [E, ops.twist(E, BASIS_L.realize(Slope(1, 0)), 1),
          ops.twist(E, BASIS_L.realize(Slope(0, 1)), -1),
          ops.twist(E, BASIS_L.realize(Slope(2, 1)), 2)]
    for b in bs:
        assert ops.intersect(b, W) == 2
        prof = ops.neighborhood_profile([W, b])
        for sel in (SEL_L, SEL_R):
            oracle = {
                m
                for m in prof.boundary_classes
                if m != W and sel.complex.region_containing(m) == sel.region
            }
            assert pj.project(sel, b) == oracle


def test_project_twist_equivariance():
    # Twists supported inside the side commute with the projection; a
    # twist along the boundary curve itself does not change it at all.
    for s, p in ((Slope(1, 0), 1), (Slope(0, 1), -1), (Slope(2, 1), 1)):
        t = BASIS_L.realize(s)
        moved = pj.project(SEL_L, ops.twist(E, t, p))
        expect = {ops.twist(m, t, p) for m in pj.project(SEL_L, E)}
        assert moved == expect
    b = _multi_arc_curve(11)
    for sel in (SEL_L, SEL_R):
        assert pj.project(sel, ops.twist(b, W, 1)) == pj.project(sel, b)


def test_projection_slopes_and_chart():
    for s in (Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 2), Slope(5, 3)):
        c = BASIS_L.realize(s)
        assert BASIS_L.slope_of(c) == s
        assert ops.intersect(c, W) == 0
        assert SEL_L.complex.region_containing(c) == SEL_L.region
    # Slope determinants realize intersection numbers inside the side.
    x, y = BASIS_L.realize(Slope(2, 1)), BASIS_L.realize(Slope(1, 2))
    assert ops.intersect(x, y) == 3
    left, right = pj.projection_slopes(SEL_L, E), pj.projection_slopes(SEL_R, E)
    assert len(left) == 1 == len(right)
    with pytest.raises(ValueError):
        BASIS_L.slope_of(W)


def test_torus_basis_needs_genus_one_side():
    tri3 = standard_triangulation(3)
    h = handle_curves(tri3)
    w3 = ops.band_sum(h[0], h[1])
    sel = pj.SideSelector(w3, "left")
    big = sel if sel.genus == 2 else sel.other()
    assert big.genus == 2
    with pytest.raises(ValueError):
        pj.TorusBasis(big)


def _diameter(sel, b):
    """Farey diameter of the projected slopes, over every pair."""
    slopes = pj.projection_slopes(sel, b)
    return max((farey_distance(s, t) for s in slopes for t in slopes), default=0)


def test_projection_diameter_and_bound():
    assert _diameter(SEL_L, E) == 0
    assert _diameter(SEL_L, C) == 0
    for seed in (11, 12, 14):
        b = _multi_arc_curve(seed)
        arcs = ops.intersect(b, W) // 2
        for sel in (SEL_L, SEL_R):
            assert _diameter(sel, b) <= 2 * arcs + 2
    assert any(_diameter(SEL_L, _multi_arc_curve(seed)) >= 1 for seed in (11, 12, 14))


def test_diam_witness():
    w = pj.diam_witness(SEL_L, E, BASIS_L)
    slopes = pj.projection_slopes(SEL_L, E, BASIS_L)
    assert all(farey_distance(w, s) >= 2 for s in slopes)
    # Deterministic first-by-height choice: 1/0 and 0/1 are Farey
    # neighbors of the single projected slope 1/1, so -1/1 is first.
    assert slopes == {Slope(1, 1)}
    assert w == Slope(-1, 1)
    # Vacuous case: empty projection accepts the very first slope.
    assert pj.project(SEL_L, A) == set()
    assert pj.diam_witness(SEL_L, A, BASIS_L) == Slope(1, 0)
    b = _multi_arc_curve(11)
    wb = pj.diam_witness(SEL_L, b, BASIS_L)
    assert all(
        farey_distance(wb, s) >= 2 for s in pj.projection_slopes(SEL_L, b, BASIS_L)
    )


def _rescan_diam_witness(sel, b, basis):
    """`diam_witness` as it was: step h retests every slope of height <= h."""
    slopes = pj.projection_slopes(sel, b, basis)
    for h in range(1, pj.MAX_WITNESS_HEIGHT + 1):
        for c in sorted(enumerate_slopes(h)):
            if all(farey_distance(c, s) >= 2 for s in slopes):
                return c
    raise RuntimeError("no witness slope within the height bound")


def test_slopes_of_height_partition_the_enumeration():
    for h in range(1, 12):
        got = list(pj._slopes_of_height(h))
        lower = enumerate_slopes(h - 1) if h > 1 else set()
        assert got == sorted(enumerate_slopes(h) - lower)


def test_diam_witness_against_rescan_on_suite_instances(monkeypatch):
    # Every witness the projection-diameter suite asks for at seeds
    # 101-104 is the slope the rescanning search finds.
    calls = []
    witness = pj.diam_witness

    def record(sel, b, basis):
        calls.append((sel, b, basis, witness(sel, b, basis)))
        return calls[-1][3]

    monkeypatch.setattr(pj, "diam_witness", record)
    for seed in (101, 102, 103, 104):
        suites.run_check("projection-diameter", seed)
    assert len(calls) > 200
    assert any(got.q > 1 for *_, got in calls)
    for sel, b, basis, got in calls:
        assert got == _rescan_diam_witness(sel, b, basis)


def test_innermost_surgery_separating():
    rec = pj.innermost_surgery(W, E)
    assert rec == pj.innermost_surgery(W, E)
    assert len(rec["b_arc"]) >= 1
    for c in rec["candidates"]:
        assert ops.intersect(c, W) == 0
        assert c != W
        assert ops.intersect(c, E) < ops.intersect(W, E)
    for seed in (11, 12):
        b = _multi_arc_curve(seed)
        rec = pj.innermost_surgery(W, b)
        for c in rec["candidates"]:
            assert ops.intersect(c, W) == 0
            assert c != W
            assert ops.intersect(c, b) < ops.intersect(W, b)


def test_innermost_surgery_torus_slopes():
    alpha = BASIS_L.alpha
    for s in (Slope(1, 2), Slope(2, 3), Slope(-1, 3), Slope(3, 4)):
        b = BASIS_L.realize(s)
        n = ops.intersect(alpha, b)
        assert n == abs(s.q)
        rec = pj.innermost_surgery(alpha, b)
        for c in rec["candidates"]:
            assert ops.intersect(c, b) < n
            # Coherent torus crossings: surgery trades crossings with b
            # for at most the complementary crossings with alpha.
            assert c == alpha or ops.intersect(c, alpha) < n or n == 1


def test_innermost_surgery_errors():
    with pytest.raises(ValueError):
        pj.innermost_surgery(A, C)
    with pytest.raises(ValueError):
        pj.innermost_surgery(A, A)


def test_surjdisc_witness():
    c = BASIS_L.realize(Slope(1, 1))
    cont = MarkedCB(TRI, [W, c])
    assert pj.surjdisc_witness(W, c, cont) == c
    # E projects to the 1/1 slope on the left, hitting the marking.
    assert pj.projection_slopes(SEL_L, E, BASIS_L) == {Slope(1, 1)}
    assert pj.surjdisc_witness(W, E, cont) == c
    # Far marking: every projection at distance >= 2 refutes containment.
    far = BASIS_L.realize(Slope(-1, 1))
    assert all(
        farey_distance(Slope(-1, 1), s) >= 2
        for side in (SEL_L, SEL_R)
        for s in (pj.projection_slopes(SEL_L, E, BASIS_L) if side is SEL_L else set())
    )
    cont_far = MarkedCB(TRI, [W, far])
    assert pj.surjdisc_witness(W, E, cont_far) is None


def test_surjdisc_witness_on_the_right_side():
    # The marking lies right of W, so only the second selector sees it.
    basis_r = pj.TorusBasis(SEL_R)
    m = basis_r.realize(min(pj.projection_slopes(SEL_R, E, basis_r)))
    assert SEL_R.complex.region_containing(m) == SEL_R.region
    assert pj.surjdisc_witness(W, E, MarkedCB(TRI, [W, m])) == m


def test_surjdisc_preconditions():
    c = BASIS_L.realize(Slope(1, 1))
    cont = MarkedCB(TRI, [W, c])
    with pytest.raises(ValueError):
        pj.surjdisc_witness(A, E, cont)
    with pytest.raises(ValueError):
        pj.surjdisc_witness(W, A, small_cb(W))


def test_projection_finite_and_essential():
    # Every projected curve is an essential curve of the capped side:
    # nonseparating there, so nonseparating in S as well.
    for seed in (11, 14):
        b = _multi_arc_curve(seed)
        for sel in (SEL_L, SEL_R):
            ps = pj.project(sel, b)
            assert len(ps) <= ops.intersect(b, W)
            for m in ps:
                assert not m.is_separating
                assert ops.intersect(m, W) == 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(genus=st.sampled_from((2, 3)), data=st.data())
def test_every_arc_candidate_builds_a_class(genus, data):
    # The pair is in minimal position, so no candidate circle bounds a
    # disk: each word builds an essential class, and none is dropped.
    tri = standard_triangulation(genus)
    gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(genus - 1)]
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=1, max_size=4)

    def curve():
        return _push(gens[data.draw(pick)], [(gens[i], p) for i, p in data.draw(word)])

    a, b = curve(), curve()
    assume(ops.intersect(a, b) > 0)
    for _, words, _ in ops.reduced_pair(a, b).arc_closures(1):
        for w in words:
            assert CurveClass.from_texts(tri, [w]).is_connected


def _push(c, word):
    for d, p in word:
        c = ops.twist(c, d, p)
    return c
