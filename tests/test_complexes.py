import random
from itertools import combinations

import graph_oracle
import pytest

from cbgraph import cb, complexes, ops, suites
from cbgraph.cb import MarkedCB, small_cb
from cbgraph.complexes import (
    ComplexFragment,
    build_cb_fragment,
    build_schmutz_fragment,
    build_tc_fragment,
    chromatic_number,
    clique_number,
    empty_triangle_family,
    empty_triangles,
    is_join,
    links,
    verify_prop_intersection,
)
from cbgraph.farey import Slope, enumerate_slopes
from cbgraph.model import EmbeddedToriModel
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRI = standard_triangulation(2)
A, B, C, D = handle_curves(TRI)
E = chain_connector(TRI, 0)


def test_standard_curve_family_intersections():
    assert ops.intersect(A, B) == 1
    assert ops.intersect(C, D) == 1
    assert ops.intersect(E, A) == 1
    assert ops.intersect(E, C) == 1
    assert ops.intersect(E, B) == 0
    assert ops.intersect(E, D) == 0
    for g in (2, 3):
        tri = standard_triangulation(g)
        curves = handle_curves(tri)
        for i, x in enumerate(curves):
            for j in range(i + 1, len(curves)):
                expect = 1 if (i // 2 == j // 2) else 0
                assert ops.intersect(x, curves[j]) == expect


def test_exact_clique_and_chromatic():
    k4 = (4, {(i, j) for i in range(4) for j in range(i + 1, 4)})
    assert clique_number(k4) == 4
    assert chromatic_number(k4) == 4
    c5 = (5, {(i, (i + 1) % 5) for i in range(5)})
    assert clique_number(c5) == 2
    assert chromatic_number(c5) == 3
    empty = (6, set())
    assert clique_number(empty) == 1
    assert chromatic_number(empty) == 1
    assert chromatic_number((0, set())) == 0


def test_chromatic_matches_bruteforce_on_random_graphs():
    from itertools import product

    rng = random.Random(91)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        best = n
        for assignment in product(range(n), repeat=n):
            if all(assignment[i] != assignment[j] for i, j in edges):
                best = min(best, len(set(assignment)))
        assert chromatic_number((n, edges)) == best
        assert clique_number((n, edges)) <= best


def _agrees_with_oracle(g):
    assert clique_number(g) == graph_oracle.clique_number(g), g
    assert chromatic_number(g) == graph_oracle.chromatic_number(g), g


def test_graph_searches_match_the_oracle_on_small_graphs():
    for n in range(6):
        for g in graph_oracle.labelled_graphs(n):
            _agrees_with_oracle(g)


def test_graph_searches_match_the_oracle_on_random_graphs():
    for g in graph_oracle.random_graphs(seed=39, count=150, max_n=12):
        _agrees_with_oracle(g)


def test_graph_searches_on_mycielski_m4():
    m4 = graph_oracle.mycielski(3)
    assert m4[0] == 23 and len(m4[1]) == 71
    assert clique_number(m4) == 2 == graph_oracle.clique_number(m4)
    assert chromatic_number(m4) == 5 == graph_oracle.chromatic_number(m4)


def test_anti_connected():
    # A graph is anti-connected (its complement is connected) exactly
    # when no split of its vertices into two nonempty parts is a join.
    def anti_connected(g):
        n, edges = g
        frag = ComplexFragment("tc", range(n), edges)
        return not any(
            is_join(frag, part, [v for v in range(n) if v not in part])
            for k in range(1, n)
            for part in combinations(range(n), k)
        )

    assert anti_connected((1, set()))
    assert anti_connected((4, set()))
    k3 = (3, {(0, 1), (0, 2), (1, 2)})
    assert not anti_connected(k3)
    # Complement of a path leaves its middle vertex isolated.
    path = (3, {(0, 1), (1, 2)})
    assert not anti_connected(path)
    one_edge = (3, {(0, 1)})
    assert anti_connected(one_edge)


def _chain_bodies():
    sa = small_cb(A)
    b1 = next(c for c in sa.system if c != A)
    return [
        small_cb(b1),
        MarkedCB(TRI, [b1, A]),
        MarkedCB(TRI, [b1, A, C]),
    ]


def test_cb_fragment_chain():
    bodies = _chain_bodies()
    frag = build_cb_fragment(bodies)
    assert [b.height for b in bodies] == [1, 2, 3]
    assert frag.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert complexes.height_coloring_is_proper(frag)
    assert complexes.is_comparability(frag)
    assert clique_number(frag) == 3 == chromatic_number(frag)

    mid = links(frag, 1)
    assert mid == {"up": [2], "down": [0]}
    assert is_join(frag, mid["up"], mid["down"])
    assert links(frag, 2)["up"] == []
    assert links(frag, 0)["down"] == []


def test_cb_fragment_asks_one_direction_after_a_containment(monkeypatch):
    # Containment is strict: once contains(u, v) is TRUE, contains(v, u)
    # is not asked.  Each of the chain's three pairs nests forward.
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return cb.contains(u, v)

    monkeypatch.setattr(complexes, "contains", counted)
    frag = build_cb_fragment(_chain_bodies())
    assert frag.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert len(calls) == 3


def test_links_ask_one_direction_per_endpoint(monkeypatch):
    # Heights order every edge, so each endpoint visit asks one
    # containment: the chain fragments at genus 2 and 3 have 3 + 10
    # edges, so 26 visits.
    frags = [build_cb_fragment(suites._maximal_chain_bodies(g)) for g in (2, 3)]
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return cb.contains(u, v)

    monkeypatch.setattr(complexes, "contains", counted)
    for frag in frags:
        for v in range(len(frag)):
            lk = links(frag, v)
            assert lk["up"] == list(range(v + 1, len(frag)))
            assert lk["down"] == list(range(v))
    assert sum(len(f.edges) for f in frags) == 13
    assert len(calls) == 26
    assert all(u.height < w.height for u, w in calls)


def test_cb_fragment_small_bodies():
    frag = build_cb_fragment([small_cb(A), small_cb(C), small_cb(ops.band_sum(A, B))])
    # B(a,b) bounds a punctured torus on either side, one containing a
    # and one containing c, so S[B(a,b)] sits inside both small bodies;
    # the two nonseparating smalls are unrelated.
    assert frag.edges == frozenset({(0, 2), (1, 2)})
    assert complexes.height_coloring_is_proper(frag)


def test_cb_fragment_rejects_trivial_vertex():
    with pytest.raises(ValueError):
        build_cb_fragment([MarkedCB(TRI, [])])


def test_tc_fragment_from_model_is_complete():
    model = EmbeddedToriModel(A, B)
    curves = [model.image(s) for s in sorted(enumerate_slopes(2))]
    frag = build_tc_fragment(curves, max_dim=3)
    n = len(curves)
    assert len(frag.edges) == n * (n - 1) // 2
    assert len([s for s in frag.simplices if len(s) == 3]) == (
        n * (n - 1) * (n - 2) // 6
    )
    assert empty_triangles(frag) == set()


def test_tc_fragment_disjoint_curves_edgeless():
    frag = build_tc_fragment([A, C])
    assert frag.edges == frozenset()
    with pytest.raises(ValueError):
        build_tc_fragment([A, ops.band_sum(A, B)])


def test_tc_fragment_matches_pairwise_predicate():
    curves = [A, B, C, ops.twist(B, A, 1), E]
    frag = build_tc_fragment(curves, max_dim=2)
    for i, j in combinations(range(len(curves)), 2):
        assert frag.adjacent(i, j) == ops.common_punctured_torus(
            [curves[i], curves[j]]
        )


def test_empty_triangle_family():
    triples = empty_triangle_family(A, B, E, range(1, 6))
    assert len(triples) == 5
    seen = {t[2] for t in triples}
    assert len(seen) == 5
    frag = build_tc_fragment([A, B] + sorted(seen), max_dim=2)
    empties = empty_triangles(frag)
    assert len(empties) >= 5
    report = verify_prop_intersection(frag)
    assert report["ok"], report
    assert report["empty_triangles"] == len(empties)


def test_schmutz_fragment():
    assert complexes.schmutz_adjacent(A, B)
    assert not complexes.schmutz_adjacent(A, A)
    assert not complexes.schmutz_adjacent(A, C)
    with pytest.raises(ValueError):
        complexes.schmutz_adjacent(A, ops.band_sum(A, B))
    frag = build_schmutz_fragment([A, B, C, D, E])
    assert frag.adjacent(0, 1)
    assert frag.adjacent(2, 3)
    assert not frag.adjacent(0, 2)
    assert frag.adjacent(4, 0)


def test_fragment_serialization_round_trip():
    frag = build_tc_fragment([A, B, C], max_dim=2, provenance={"recipe": "handles", "seed": 0})
    back = ComplexFragment.from_json(frag.to_json())
    assert back.kind == frag.kind
    assert back.vertices == frag.vertices
    assert back.edges == frag.edges
    assert back.simplices == frag.simplices
    assert back.provenance == frag.provenance
    dot = frag.to_dot()
    assert dot.count("--") == len(frag.edges)
    assert dot.count("label") == len(frag.vertices)

    cb_frag = build_cb_fragment(_chain_bodies())
    cb_back = ComplexFragment.from_json(cb_frag.to_json())
    assert cb_back.edges == cb_frag.edges
    assert [v.derived_type for v in cb_back.vertices] == [
        v.derived_type for v in cb_frag.vertices
    ]


def test_fragment_twist_equivariance():
    rng = random.Random(97)
    curves = [A, B, C, ops.twist(B, A, 1)]
    frag = build_tc_fragment(curves, max_dim=2)
    word = [(rng.choice((A, B, C, D, E)), rng.choice((1, -1))) for _ in range(2)]

    def push(c):
        for along, p in word:
            c = ops.twist(c, along, p)
        return c

    moved = build_tc_fragment([push(c) for c in curves], max_dim=2)
    assert moved.edges == frag.edges
    assert moved.simplices == frag.simplices
