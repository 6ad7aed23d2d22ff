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
CHART_L = SEL_L.chart


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
    bs = [E, ops.twist(E, CHART_L.image(Slope(1, 0)), 1),
          ops.twist(E, CHART_L.image(Slope(0, 1)), -1),
          ops.twist(E, CHART_L.image(Slope(2, 1)), 2)]
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
        t = CHART_L.image(s)
        moved = pj.project(SEL_L, ops.twist(E, t, p))
        expect = {ops.twist(m, t, p) for m in pj.project(SEL_L, E)}
        assert moved == expect
    b = _multi_arc_curve(11)
    for sel in (SEL_L, SEL_R):
        assert pj.project(sel, ops.twist(b, W, 1)) == pj.project(sel, b)


def test_projection_slopes_and_chart():
    for s in (Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 2), Slope(5, 3)):
        c = CHART_L.image(s)
        assert CHART_L.slope_of(c) == s
        assert ops.intersect(c, W) == 0
        assert SEL_L.complex.region_containing(c) == SEL_L.region
    # Slope determinants realize intersection numbers inside the side.
    x, y = CHART_L.image(Slope(2, 1)), CHART_L.image(Slope(1, 2))
    assert ops.intersect(x, y) == 3
    left, right = pj.projection_slopes(SEL_L, E), pj.projection_slopes(SEL_R, E)
    assert len(left) == 1 == len(right)
    with pytest.raises(ValueError):
        CHART_L.slope_of(W)


def test_chart_needs_genus_one_side():
    tri3 = standard_triangulation(3)
    h = handle_curves(tri3)
    w3 = ops.band_sum(h[0], h[1])
    sel = pj.SideSelector(w3, "left")
    big = sel if sel.genus == 2 else sel.other()
    assert big.genus == 2
    with pytest.raises(ValueError, match="genus-1 side"):
        big.chart


def _charted_sides():
    """Both sides of W and the genus-1 side of a genus-3 band sum."""
    h = handle_curves(standard_triangulation(3))
    sel = pj.SideSelector(ops.band_sum(h[0], h[1]), "left")
    return [SEL_L, SEL_R, sel if sel.genus == 1 else sel.other()]


@pytest.mark.parametrize("k", range(3))
def test_chart_reads_back_every_slope_it_realizes(k):
    chart = _charted_sides()[k].chart
    for s in sorted(enumerate_slopes(6)):
        assert chart.slope_of(chart.image(s)) == s


def test_braid_relation_on_chart_and_handle_pairs():
    # Curves meeting once satisfy T_a(b) = T_b^-1(a), so a chart twists
    # along its beta with one constant sign.
    pairs = [(sel.chart.alpha, sel.chart.beta) for sel in _charted_sides()]
    for g in (2, 3, 4):
        h = handle_curves(standard_triangulation(g))
        pairs += [(h[2 * k], h[2 * k + 1]) for k in range(g)]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        assert ops.intersect(a, b) == 1
        assert ops.twist(b, a, 1) == ops.twist(a, b, -1)


def _project_drawn_in_order(sel, b):
    """The projection of b crossing the selector's curve a, read off the
    pair drawn in the order (a, b)."""
    a = sel.curve
    out = set()
    for _, words, _ in ops.reduced_pair(a, b).arc_closures(1):
        kept = [c for c in (CurveClass.from_texts(a.tri, [w]) for w in words) if c != a]
        if kept and sel.complex.region_containing(kept[0]) == sel.region:
            out.update(kept)
    return out


def test_projection_does_not_depend_on_the_drawing_order():
    # `_project` reads b's arcs from the pair drawn in sorted order;
    # both orders of (a, b) occur below.
    tri3 = standard_triangulation(3)
    h = handle_curves(tri3)
    sel3 = pj.SideSelector(ops.band_sum(h[0], h[1]), "left")
    gens3 = h + [chain_connector(tri3, k) for k in range(2)]
    cases = [(SEL_L, [A, B, C, D, E]), (SEL_R, [A, B, C, D, E]), (sel3, gens3)]
    orders = []
    for k, (sel, gens) in enumerate(cases):
        rng = random.Random(1500 + k)
        for _ in range(40):
            b = _push(rng.choice(gens), [(rng.choice(gens), rng.choice((1, -1))) for _ in range(4)])
            if ops.intersect(b, sel.curve) == 0:
                continue
            orders.append((k, b > sel.curve))
            assert pj.project(sel, b) == _project_drawn_in_order(sel, b)
    assert {k for k, _ in orders} == {0, 1, 2}
    assert len(orders) >= 30 and {order for _, order in orders} == {True, False}


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
    w = pj.diam_witness(SEL_L, E)
    slopes = pj.projection_slopes(SEL_L, E)
    assert all(farey_distance(w, s) >= 2 for s in slopes)
    # Deterministic first-by-height choice: 1/0 and 0/1 are Farey
    # neighbors of the single projected slope 1/1, so -1/1 is first.
    assert slopes == {Slope(1, 1)}
    assert w == Slope(-1, 1)
    # Vacuous case: empty projection accepts the very first slope.
    assert pj.project(SEL_L, A) == set()
    assert pj.diam_witness(SEL_L, A) == Slope(1, 0)
    b = _multi_arc_curve(11)
    wb = pj.diam_witness(SEL_L, b)
    assert all(
        farey_distance(wb, s) >= 2 for s in pj.projection_slopes(SEL_L, b)
    )


def _rescan_diam_witness(sel, b):
    """`diam_witness` as it was: step h retests every slope of height <= h."""
    slopes = pj.projection_slopes(sel, b)
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

    def record(sel, b):
        calls.append((sel, b, witness(sel, b)))
        return calls[-1][2]

    monkeypatch.setattr(pj, "diam_witness", record)
    for seed in (101, 102, 103, 104):
        suites.run_check("projection-diameter", seed)
    assert len(calls) > 200
    assert any(got.q > 1 for *_, got in calls)
    for sel, b, got in calls:
        assert got == _rescan_diam_witness(sel, b)


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
    alpha = CHART_L.alpha
    for s in (Slope(1, 2), Slope(2, 3), Slope(-1, 3), Slope(3, 4)):
        b = CHART_L.image(s)
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
    c = CHART_L.image(Slope(1, 1))
    cont = MarkedCB(TRI, [W, c])
    assert pj.surjdisc_witness(SEL_L, c, cont) == c
    # E projects to the 1/1 slope on the left, hitting the marking.
    assert pj.projection_slopes(SEL_L, E) == {Slope(1, 1)}
    assert pj.surjdisc_witness(SEL_L, E, cont) == c
    # Far marking: every projection at distance >= 2 refutes containment.
    far = CHART_L.image(Slope(-1, 1))
    assert all(
        farey_distance(Slope(-1, 1), s) >= 2
        for side in (SEL_L, SEL_R)
        for s in (pj.projection_slopes(SEL_L, E) if side is SEL_L else set())
    )
    cont_far = MarkedCB(TRI, [W, far])
    assert pj.surjdisc_witness(SEL_L, E, cont_far) is None


def test_surjdisc_witness_on_the_right_side():
    # The marking lies right of W, so only the second selector sees it.
    m = SEL_R.chart.image(min(pj.projection_slopes(SEL_R, E)))
    assert SEL_R.complex.region_containing(m) == SEL_R.region
    assert pj.surjdisc_witness(SEL_L, E, MarkedCB(TRI, [W, m])) == m


def test_surjdisc_witness_is_the_same_from_either_side():
    # The search runs left before right whichever selector it is given:
    # with a marking in each side's projection the left one is found.
    for seed in (11, 12, 14):
        b = _multi_arc_curve(seed)
        marks = [sel.chart.image(min(pj.projection_slopes(sel, b))) for sel in (SEL_L, SEL_R)]
        for system in ([W, marks[0]], [W, marks[1]], [W, *marks]):
            cont = MarkedCB(TRI, system)
            got = pj.surjdisc_witness(SEL_L, b, cont)
            assert got == system[1]
            assert pj.surjdisc_witness(SEL_R, b, cont) == got


def test_surjdisc_preconditions():
    with pytest.raises(ValueError, match="contain S\\[a\\]"):
        pj.surjdisc_witness(SEL_L, A, small_cb(E))
    with pytest.raises(ValueError):
        pj.surjdisc_witness(SEL_L, A, small_cb(W))


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
