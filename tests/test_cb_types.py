from itertools import combinations

import pytest

from cbgraph.cb import (
    CBType,
    _predecessors,
    all_minimal_sequences,
    classify_short,
    composable_pairs,
    enumerate_types,
    glue,
    height,
    minimal_moves,
    purely_separating,
    trivial_type,
    types_of_height,
)
from cb_oracles import bfs_height, scan_types_by_height, search_minimal_sequences
from cb_oracles import enumerate_types as scan_enumerate_types


def test_cbtype_invariants():
    t = CBType(3, (1, 2))
    assert t.interior_genera == (1, 2)
    assert CBType(3, (2, 1)) == t
    with pytest.raises(ValueError):
        CBType(0, ())
    with pytest.raises(ValueError):
        CBType(2, (0,))
    with pytest.raises(ValueError):
        CBType(2, (1, 2))
    assert trivial_type(4).is_trivial
    assert CBType(4, ()).is_handlebody
    assert not CBType(4, (1,)).is_handlebody


def test_cbtype_json_round_trip():
    for t in enumerate_types(4):
        assert CBType.from_json(t.to_json()) == t
    assert CBType.from_json('{"g": 3, "interior": [1, 2]}') == CBType(3, (1, 2))


def test_height_examples():
    for g in range(1, 7):
        assert height(CBType(g, ())) == 2 * g - 1
        assert height(trivial_type(g)) == 0
        assert height(CBType(g, (1,) * g)) == g - 1


def test_height_matches_chain_oracle():
    for g in range(1, 6):
        for t in enumerate_types(g):
            assert height(t) == bfs_height(t), t


def test_glue_examples():
    assert glue(CBType(2, (1, 1)), 1, CBType(1, ())) == CBType(2, (1,))
    assert glue(CBType(3, (2,)), 2, CBType(2, (1, 1))) == CBType(3, (1, 1))
    for t in enumerate_types(4):
        for f in set(t.interior_genera):
            assert glue(t, f, trivial_type(f)) == t
    with pytest.raises(ValueError):
        glue(CBType(2, (1,)), 2, CBType(2, (1,)))
    with pytest.raises(ValueError):
        glue(CBType(3, (2,)), 2, CBType(1, ()))


def test_glue_additivity_exhaustive():
    checked = 0
    for c, f, d in composable_pairs(6):
        assert height(glue(c, f, d)) == height(c) + height(d), (c, f, d)
        checked += 1
    assert checked > 100


def test_minimal_moves_examples():
    assert minimal_moves(trivial_type(2)) == {CBType(2, (1, 1))}
    assert minimal_moves(CBType(2, (1,))) == {CBType(2, ())}
    assert minimal_moves(CBType(3, ())) == set()
    assert minimal_moves(trivial_type(4)) == {
        CBType(4, (1, 3)),
        CBType(4, (2, 2)),
    }


def test_minimal_moves_raise_height_by_one():
    for g in range(1, 7):
        for t in enumerate_types(g):
            for nxt in minimal_moves(t):
                assert height(nxt) == height(t) + 1, (t, nxt)


def test_all_minimal_sequences_genus2_handlebody():
    chains = all_minimal_sequences(CBType(2, ()))
    assert chains == {(CBType(2, (1, 1)), CBType(2, (1,)), CBType(2, ()))}


def test_all_minimal_sequences_trivial():
    for g in range(1, 5):
        assert all_minimal_sequences(trivial_type(g)) == {()}


def test_all_minimal_sequences_length_uniformity():
    for g in range(1, 6):
        for t in enumerate_types(g):
            chains = all_minimal_sequences(t)
            assert chains, t
            for chain in chains:
                assert len(chain) == height(t), (t, chain)
                cur = trivial_type(g)
                for nxt in chain:
                    assert nxt in minimal_moves(cur), (t, chain)
                    cur = nxt
                assert cur == t


def test_all_minimal_sequences_guard():
    with pytest.raises(ValueError):
        all_minimal_sequences(CBType(7, ()))


def test_chains_match_the_search_oracle():
    for g in range(1, 7):
        for t in scan_enumerate_types(g):
            assert all_minimal_sequences(t) == search_minimal_sequences(t), t


def test_predecessors_invert_minimal_moves():
    for g in range(1, 9):
        types = enumerate_types(g)
        for t in types:
            assert _predecessors(t) == {p for p in types if t in minimal_moves(p)}, t


def test_types_of_height_match_the_filtered_scan():
    for g in range(1, 13):
        types = scan_enumerate_types(g)
        for h in range(-1, 2 * g + 2):
            assert types_of_height(g, h) == [t for t in types if height(t) == h], (g, h)


def test_classify_short_examples():
    two = classify_short(2)
    assert two["height1"] == {CBType(2, (1, 1))}
    assert two["height2"] == {CBType(2, (1,))}
    three = classify_short(3)
    assert CBType(3, (2,)) in three["height2"]
    assert CBType(3, (1, 1, 1)) in three["height2"]
    with pytest.raises(ValueError):
        classify_short(1)


def test_classify_short_matches_scan():
    for g in range(2, 7):
        got = classify_short(g)
        assert got["height1"] == scan_types_by_height(g, 1)
        assert got["height2"] == scan_types_by_height(g, 2)


def test_genus2_three_height_picture():
    # Nontrivial genus-2 types: separating small, nonseparating small,
    # handlebody, with heights 1, 2, 3.
    nontrivial = [t for t in enumerate_types(2) if not t.is_trivial]
    assert {(t, height(t)) for t in nontrivial} == {
        (CBType(2, (1, 1)), 1),
        (CBType(2, (1,)), 2),
        (CBType(2, ()), 3),
    }


def test_purely_separating_iff_interior_count():
    # Interior component count equals height + 1 exactly when the interior
    # genera sum to the exterior genus.
    for g in range(1, 7):
        for t in enumerate_types(g):
            lhs = len(t.interior_genera) == height(t) + 1
            rhs = purely_separating(t)
            assert lhs == rhs, t


def test_purely_separating_examples():
    for g in range(1, 7):
        assert purely_separating(CBType(g, (1,) * g))
        assert not purely_separating(CBType(g, ()))
    assert not purely_separating(CBType(3, (1, 1)))


def test_nonsep_system_exists():
    # A type compresses along non-separating curves alone when it is
    # trivial or its interior genera fall short of the exterior genus.
    def nonsep(t):
        return t.is_trivial or not purely_separating(t)

    for g in range(1, 7):
        assert nonsep(CBType(g, ()))
        assert nonsep(trivial_type(g))
        if g >= 2:
            assert not nonsep(CBType(g, (1,) * g))
    assert nonsep(CBType(3, (1, 1)))


def test_enumerate_types_counts():
    # Partitions of all totals 0..g: p(0)+...+p(g).
    assert len(enumerate_types(1)) == 2
    assert len(enumerate_types(2)) == 4
    assert len(enumerate_types(3)) == 7
    assert len(enumerate_types(4)) == 12


def test_enumerate_types_matches_the_oracle():
    for g in range(1, 13):
        assert enumerate_types(g) == scan_enumerate_types(g), g
