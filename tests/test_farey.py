import random
from itertools import combinations

import pytest

from cbgraph import farey, suites
from cbgraph.farey import (
    ArcSlope,
    Slope,
    enumerate_slopes,
    farey_distance,
    intersect_aa,
    intersect_ca,
    intersect_cc,
    mn_constraint_solutions,
    mn_scan,
    mn_scan_has_large_solution,
    once_intersectors,
)
from oracles import (
    bfs_farey_distance,
    descent_dist_to_infinity,
    lattice_aa,
    lattice_ca,
    lattice_cc,
    scan_once_intersectors,
)


def test_slope_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-3, -7) == Slope(3, 7)
    assert Slope(5, 0) == Slope(1, 0)
    assert Slope(-2, 0) == Slope(1, 0)
    assert repr(Slope(-3, 7)) == "-3/7"
    assert Slope.parse("-3/7") == Slope(-3, 7)
    assert Slope.parse("1/0").q == 0
    with pytest.raises(ValueError):
        Slope.parse("2/4")
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_arc_distinct_types():
    assert Slope(1, 2) != ArcSlope(1, 2)
    assert len({Slope(1, 2), ArcSlope(1, 2)}) == 2


def test_intersect_cc_examples():
    assert intersect_cc(Slope(1, 0), Slope(0, 1)) == 1
    assert intersect_cc(Slope(3, 5), Slope(3, 5)) == 0
    assert intersect_cc(Slope(1, 2), Slope(3, 5)) == 1  # lattice oracle: 1
    assert lattice_cc(Slope(1, 2), Slope(3, 5)) == 1


def test_intersect_ca_examples():
    assert intersect_ca(Slope(1, 0), ArcSlope(0, 1)) == 1
    assert intersect_ca(Slope(4, 7), ArcSlope(4, 7)) == 0
    assert intersect_ca(Slope(1, 2), ArcSlope(1, 1)) == 1
    assert lattice_ca(Slope(1, 2), ArcSlope(1, 1)) == 1


def test_intersect_aa_examples():
    assert intersect_aa(ArcSlope(0, 1), ArcSlope(1, 0)) == 0
    assert lattice_aa(ArcSlope(0, 1), ArcSlope(1, 0)) == 0
    assert intersect_aa(ArcSlope(5, 3), ArcSlope(5, 3)) == 0
    assert intersect_aa(ArcSlope(0, 1), ArcSlope(2, 1)) == 1
    assert lattice_aa(ArcSlope(0, 1), ArcSlope(2, 1)) == 1


def test_lattice_oracle_agreement_small():
    slopes = sorted(enumerate_slopes(6))
    for a in slopes:
        for b in slopes:
            assert intersect_cc(a, b) == lattice_cc(a, b), (a, b)
    arcs = [ArcSlope(s.p, s.q) for s in enumerate_slopes(4)]
    for c in sorted(enumerate_slopes(4)):
        for arc in arcs:
            assert intersect_ca(c, arc) == lattice_ca(c, arc), (c, arc)
    for a1 in arcs:
        for a2 in arcs:
            assert intersect_aa(a1, a2) == lattice_aa(a1, a2), (a1, a2)


def test_intersect_cc_symmetric_zero_diagonal():
    slopes = sorted(enumerate_slopes(8))
    for a in slopes:
        for b in slopes:
            i = intersect_cc(a, b)
            assert i == intersect_cc(b, a)
            assert i >= 0
            assert (i == 0) == (a == b)


def test_farey_adjacent_examples():
    assert intersect_cc(Slope(0, 1), Slope(1, 0)) == 1
    assert intersect_cc(Slope(0, 1), Slope(1, 2)) == 1
    assert intersect_cc(Slope(1, 0), Slope(1, 2)) != 1


def test_farey_graph_connected_at_desk_scale():
    for h in (1, 2, 4):
        slopes = enumerate_slopes(h)
        base = Slope(0, 1)
        for s in slopes:
            # Reachability is witnessed by a finite distance.
            assert farey_distance(base, s) < 100


def test_farey_distance_examples():
    assert farey_distance(Slope(3, 7), Slope(3, 7)) == 0
    assert farey_distance(Slope(0, 1), Slope(1, 0)) == 1
    assert farey_distance(Slope(1, 0), Slope(5, 7)) == bfs_farey_distance(
        Slope(1, 0), Slope(5, 7)
    )


def test_farey_distance_matches_bfs():
    slopes = sorted(enumerate_slopes(5))
    for a in slopes:
        for b in slopes:
            if not b < a:
                assert farey_distance(a, b) == bfs_farey_distance(a, b), (a, b)


def test_farey_distance_matches_descent_to_height_60():
    # Every slope of height <= 60 against the parent descent, those of
    # denominator <= 8 against BFS too; then BFS from slopes other than
    # 1/0, which `farey_distance` first moves to 1/0.
    infinity = Slope(1, 0)
    bfs_checked = 0
    for s in sorted(enumerate_slopes(60)):
        d = farey_distance(infinity, s)
        assert d == descent_dist_to_infinity(s.p, s.q), s
        if s.q <= 8:
            assert d == bfs_farey_distance(infinity, s), s
            bfs_checked += 1
    assert bfs_checked > 500
    for a in (Slope(0, 1), Slope(3, 7), Slope(-5, 2)):
        for s in sorted(enumerate_slopes(12)):
            assert farey_distance(a, s) == farey_distance(s, a) == bfs_farey_distance(a, s), (a, s)


def test_farey_distance_at_large_height():
    # Partial quotients that sum far past the recursion limit of a descent.
    assert farey_distance(Slope(1, 2), Slope(1000, 1)) == 3
    assert farey_distance(Slope(1, 0), Slope(10**6, 2 * 10**6 + 1)) == 3  # [0; 2, 10**6]
    assert farey_distance(Slope(1, 0), Slope(10**300 + 1, 10**300)) == 2  # [1; 10**300]
    # A run of partial quotients 1: the ratio of Fibonacci numbers.
    fib = [1, 1]
    while len(fib) < 62:
        fib.append(fib[-1] + fib[-2])
    assert farey_distance(Slope(1, 0), Slope(fib[-1], fib[-2])) == descent_dist_to_infinity(
        fib[-1], fib[-2]
    )


def test_farey_distance_metric_axioms():
    slopes = sorted(enumerate_slopes(8))
    rng = random.Random(7)
    sample = rng.sample(slopes, 24)
    d = {(a, b): farey_distance(a, b) for a in sample for b in sample}
    for a in sample:
        assert d[a, a] == 0
    for a, b in combinations(sample, 2):
        assert d[a, b] == d[b, a]
        assert d[a, b] >= 1
    for a, b, c in combinations(sample, 3):
        assert d[a, c] <= d[a, b] + d[b, c]


def apply_sl2(m: tuple[int, int, int, int], s: Slope) -> Slope:
    """Projective action of an integer matrix [[a, b], [c, d]] on a slope."""
    a, b, c, d = m
    if a * d - b * c not in (1, -1):
        raise ValueError("matrix must have determinant +-1")
    cls = type(s)
    return cls(a * s.p + b * s.q, c * s.p + d * s.q)


def _random_sl2_word(rng, length):
    gens = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1)]
    m = (1, 0, 0, 1)
    for _ in range(length):
        a, b, c, d = m
        e, f, g, h = rng.choice(gens)
        m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return m


def test_sl2_action_preserves_intersections_and_distance():
    rng = random.Random(11)
    slopes = sorted(enumerate_slopes(4))
    for _ in range(40):
        m = _random_sl2_word(rng, rng.randint(1, 12))
        a, b = rng.choice(slopes), rng.choice(slopes)
        ma, mb = apply_sl2(m, a), apply_sl2(m, b)
        assert intersect_cc(ma, mb) == intersect_cc(a, b)
        arc = ArcSlope(b.p, b.q)
        assert intersect_ca(ma, apply_sl2(m, arc)) == intersect_ca(a, arc)
        assert farey_distance(ma, mb) == farey_distance(a, b)


def test_enumerate_slopes():
    assert enumerate_slopes(1) == {Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 1)}
    from math import gcd

    expected = {Slope(1, 0)}
    for q in range(1, 3):
        for p in range(-2, 3):
            if gcd(abs(p), q) == 1:
                expected.add(Slope(p, q))
    assert enumerate_slopes(2) == expected
    for s in enumerate_slopes(3):
        assert gcd(abs(s.p), abs(s.q)) == 1
    with pytest.raises(ValueError):
        enumerate_slopes(0)


def test_once_intersectors_census_example():
    got = once_intersectors(Slope(1, 0), ArcSlope(2, 1), max_height=12)
    assert got == {Slope(2, 1), Slope(1, 1), Slope(3, 1)}


def test_once_intersectors_matches_scan():
    got = once_intersectors(Slope(1, 0), ArcSlope(1, 2), max_height=50)
    scan = {
        c
        for c in enumerate_slopes(50)
        if intersect_cc(Slope(1, 0), c) == 1
        and intersect_ca(c, ArcSlope(1, 2)) <= 1
    }
    assert got == scan
    # Every a and beta of height <= 6 that cross, against the scan of
    # every slope of the height.
    slopes = sorted(enumerate_slopes(6))
    arcs = [ArcSlope(s.p, s.q) for s in slopes]
    sizes = [0] * 4
    for a in slopes:
        for beta in arcs:
            if intersect_ca(a, beta) == 0:
                continue
            for h in (1, 2, 3, 5, 8, 30):
                want = scan_once_intersectors(a, beta, h)
                assert once_intersectors(a, beta, h) == want, (a, beta, h)
                sizes[len(want)] += 1
    assert sizes == [9304, 3176, 604, 452]


def test_once_intersectors_builds_at_most_three_slopes(monkeypatch):
    # A filter over the slopes of height 30 would build all 1,112 of them.
    slopes = sorted(enumerate_slopes(4))
    pairs = [
        (a, ArcSlope(b.p, b.q))
        for a in slopes
        for b in slopes
        if intersect_cc(a, b) != 0
    ]
    built = []
    init = Slope.__init__

    def counting(self, p, q):
        built.append((p, q))
        init(self, p, q)

    monkeypatch.setattr(Slope, "__init__", counting)
    for a, beta in pairs:
        built.clear()
        got = once_intersectors(a, beta, 30)
        assert len(built) <= 3 and len(got) == len(built), (a, beta, built)


def test_once_intersectors_at_large_height():
    a = Slope(10**12 + 1, 10**12)
    assert once_intersectors(a, ArcSlope(1, 0), 10**13) == {Slope(1, 1)}


def test_once_intersectors_cardinality_bound():
    rng = random.Random(3)
    slopes = sorted(enumerate_slopes(6))
    checked = 0
    for _ in range(1000):
        a = rng.choice(slopes)
        beta = ArcSlope(*rng.choice([(s.p, s.q) for s in slopes]))
        if intersect_ca(a, beta) == 0:
            continue
        got = once_intersectors(a, beta, max_height=30)
        assert len(got) <= 3, (a, beta, got)
        checked += 1
    assert checked > 900


def test_once_intersectors_rejects_degenerate_normalization():
    with pytest.raises(ValueError):
        once_intersectors(Slope(1, 0), ArcSlope(1, 0), max_height=5)


def test_mn_constraint_solutions():
    assert mn_constraint_solutions() == {(2, 1), (-2, -1)}
    assert {(m, n) for m, n in mn_scan(100) if abs(m) >= 2} == {(2, 1), (-2, -1)}
    assert not mn_scan_has_large_solution(10**6)
    m, n = 2, 1
    assert abs(m * n - 1) == 1


def test_mn_scan_census_limit():
    assert mn_scan(10**6) == {(0, 1), (0, -1), (0, 2), (0, -2), (1, 2), (2, 1), (-1, -2), (-2, -1)}


def test_mn_readers_filter_the_scan(monkeypatch):
    # The real scan has no |m| >= 3 pair; a planted one must be seen.
    planted = frozenset({(0, 1), (1, 2), (2, 1), (3, -1)})
    monkeypatch.setattr(farey, "mn_scan", lambda limit: planted)
    assert mn_scan_has_large_solution(10)
    monkeypatch.setattr(farey, "mn_scan", lambda limit: planted - {(3, -1)})
    assert not mn_scan_has_large_solution(10)


def test_census_reads_both_facts_from_one_scan(monkeypatch):
    # A planted |m| >= 3 pair must fail the suite, and the failure report
    # must come from the same single scan.
    calls = []

    def planted(limit):
        calls.append(limit)
        return frozenset({(0, 1), (1, 2), (2, 1), (-2, -1), (5, 1)})

    monkeypatch.setattr(suites, "mn_scan", planted)
    ok, counts, bad = suites.check_census_bounds(random.Random(7), suites.Recipe())
    assert calls == [10**6]
    assert not ok
    assert bad == [("mn", [(-2, -1), (2, 1), (5, 1)])]
    assert counts["mn_scan"] == 10**6


def test_mn_scans_lose_nothing():
    # The scans restrict n to (1, -1, 2, -2); brute force over every
    # 1 <= |n| <= L must find no more.
    for limit in range(1, 61):
        span = range(-limit, limit + 1)
        brute = {
            (m, n)
            for m in span
            for n in span
            if abs(m) >= 2 and n != 0 and abs(m * n - 1) == 1
        }
        assert {(m, n) for m, n in mn_scan(limit) if abs(m) >= 2} == brute
        large = any(abs(m) >= 3 for m, _ in brute)
        assert mn_scan_has_large_solution(limit) == large
    # The scan's own domain, tested pair by pair, up to a limit past the
    # reach of the brute force.
    for limit in (*range(1, 61), 10**5):
        domain = ((m, n) for m in range(-limit, limit + 1) for n in (1, -1, 2, -2))
        assert mn_scan(limit) == {(m, n) for m, n in domain if abs(m * n - 1) == 1}, limit
