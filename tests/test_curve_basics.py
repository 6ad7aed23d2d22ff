import itertools
import random

import pytest

from cbgraph.kernel import (
    canonical_cyclic,
    canonical_reduced,
    cyclic_reduce,
    min_rotation,
    reverse_word,
)
from cbgraph import curves
from cbgraph.curves import CurveClass, trace_components, vertex_canonical, word_weights
from cbgraph.polygon import curve_from_chords, partner_side
from cbgraph.surface import Triangulation, standard_triangulation
from canonical_oracle import rescanning_cyclic_reduce


def test_triangulation_counts():
    for g in (2, 3, 4):
        tri = Triangulation(g)
        assert tri.num_triangles == 4 * g - 2
        assert tri.num_edges == 6 * g - 3
        assert len(tri.triangles) == tri.num_triangles
        assert all(len(set(t)) == 3 for t in tri.triangles)
        assert all(len(v) == 2 for v in tri.sides.values())
        # One vertex forces Euler characteristic 2 - 2g.
        assert 1 - tri.num_edges + tri.num_triangles == 2 - 2 * g
        assert len(tri.vertex_link) == 3 * tri.num_triangles


def test_vertex_link_holds_each_letter_once():
    # The link successor tables in `vertex_canonical` rely on this.
    for g in (2, 3, 4, 5, 6):
        tri = Triangulation(g)
        assert sorted(tri.vertex_link) == list(range(3 * tri.num_triangles))


def test_vertex_closure_guard_reports_bound_and_input(monkeypatch):
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [(0, "1/2")])
    # A detour once around the vertex: its closure holds the detour and
    # the short word at least.
    link = tuple(tri.vertex_link)
    j = next(
        j
        for j in range(len(link))
        if tri.side_of(tri.mate[link[j]])[0] == tri.side_of(a.word[0])[0]
    )
    word = a.word[:1] + link[j:] + link[:j] + a.word[1:]
    assert vertex_canonical(tri, word) == a.word
    monkeypatch.setattr(curves, "MAX_VERTEX_CLOSURE", 1)
    with pytest.raises(
        RuntimeError,
        match=rf"exceeded MAX_VERTEX_CLOSURE = 1: \d+ words reached from an "
        rf"input word of length {len(word)}$",
    ):
        vertex_canonical(tri, word)


def test_mate_involution():
    for g in (2, 3):
        tri = Triangulation(g)
        n = 3 * tri.num_triangles
        assert len(tri.mate) == n
        for x in range(n):
            assert tri.mate[x] != x
            assert tri.mate[tri.mate[x]] == x
            assert tri.side_edge[x] == tri.side_edge[tri.mate[x]]


def test_triangulation_checksum_stable():
    assert Triangulation(2).checksum == Triangulation(2).checksum
    assert Triangulation(2).checksum != Triangulation(3).checksum
    assert standard_triangulation(2) is standard_triangulation(2)


# Synthetic involution for kernel tests: mate pairs 2i <-> 2i+1.
MATE = tuple(x ^ 1 for x in range(10))


def test_cyclic_reduce():
    assert cyclic_reduce((), MATE) == ()
    assert cyclic_reduce((0, 1), MATE) == ()
    assert cyclic_reduce((2, 0, 1, 4), MATE) == (2, 4)
    assert cyclic_reduce((0, 2, 3, 1), MATE) == ()
    assert cyclic_reduce((1, 4, 0), MATE) == (4,)
    assert cyclic_reduce((0, 2, 0, 2), MATE) == (0, 2, 0, 2)
    # A conjugate u.c.u^-1 with a long u strips back to c, and to nothing
    # when c is empty.
    u = (0, 2, 4, 6, 8) * 400
    c = (3, 5)
    assert cyclic_reduce(u + c + reverse_word(u, MATE), MATE) == c
    assert cyclic_reduce(u + reverse_word(u, MATE), MATE) == ()
    assert cyclic_reduce(u + (0, 1) + c + reverse_word(u, MATE), MATE) == c
    # A nested cancellation u.u^-1 inside the word, with |u| = 4000.
    u = (0, 2, 4, 6, 8) * 800
    assert cyclic_reduce((3,) + u + reverse_word(u, MATE) + (5,), MATE) == (3, 5)


def _nested_word(rng):
    """A random word with cancelling blocks inserted, then conjugated."""
    w = [rng.randrange(10) for _ in range(rng.randint(0, 60))]
    for _ in range(rng.randint(1, 6)):
        u = tuple(rng.randrange(10) for _ in range(rng.randint(1, 80)))
        k = rng.randint(0, len(w))
        w[k:k] = u + reverse_word(u, MATE)
    v = tuple(rng.randrange(10) for _ in range(rng.randint(0, 80)))
    return v + tuple(w) + reverse_word(v, MATE)


def test_cyclic_reduce_is_a_rotation_of_the_rescanning_oracle():
    # Every word of length <= 7 over 6 letters, then random longer ones.
    words = itertools.chain.from_iterable(
        itertools.product(range(6), repeat=n) for n in range(8)
    )
    rng = random.Random(11)
    longer = [_nested_word(rng) for _ in range(500)]
    longer += [tuple(rng.randrange(10) for _ in range(400)) for _ in range(100)]
    for w in itertools.chain(words, longer):
        got, want = cyclic_reduce(w, MATE), rescanning_cyclic_reduce(w, MATE)
        assert len(got) == len(want), w
        assert got == want or any(
            got == want[i:] + want[:i] for i in range(1, len(want))
        ), w


def test_min_rotation_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        w = tuple(rng.randint(0, 4) for _ in range(n))
        best = min(w[i:] + w[:i] for i in range(n))
        assert min_rotation(w) == best, w


def test_canonical_cyclic_reversal_invariance():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 10)
        w = tuple(rng.randint(0, 9) for _ in range(n))
        k = rng.randrange(n)
        rotated = w[k:] + w[:k]
        assert canonical_cyclic(w, MATE) == canonical_cyclic(rotated, MATE)
        assert canonical_cyclic(w, MATE) == canonical_cyclic(
            reverse_word(w, MATE), MATE
        )


def test_canonical_reduced_is_canonical_cyclic_on_reduced_words():
    # `vertex_canonical` skips the second reduction of words it reduced.
    rng = random.Random(13)
    words = [_nested_word(rng) for _ in range(200)]
    words += [tuple(rng.randrange(10) for _ in range(rng.randint(0, 12))) for _ in range(300)]
    for w in words:
        r = cyclic_reduce(w, MATE)
        assert canonical_reduced(r, MATE) == canonical_cyclic(r, MATE) == canonical_cyclic(w, MATE)


def _weights_on(tri, edges):
    w = [0] * tri.num_edges
    for e in edges:
        w[e] += 1
    return tuple(w)


def test_author_handle_curves_genus2():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [(0, "1/2")])
    assert a.weights == _weights_on(tri, [0, 4])
    b = curve_from_chords(tri, [(1, "1/2")])
    assert b.weights == _weights_on(tri, [1, 4, 5])
    c = curve_from_chords(tri, [(4, "1/2")])
    assert c.weights == _weights_on(tri, [2, 7, 8])
    for x in (a, b, c):
        assert x.component_count == 1
        assert not x.is_separating
        assert sorted(x.edge_words[0]) == [e for e, n in enumerate(x.weights) for _ in range(n)]


def test_trace_round_trip():
    tri = standard_triangulation(2)
    for spec in ([(0, "1/2")], [(1, "1/3")], [(5, "2/5")]):
        c = curve_from_chords(tri, spec)
        again = CurveClass.from_weights(tri, c.weights)
        assert again == c


def test_multicurve_from_disjoint_words():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [(0, "1/2")])
    c = curve_from_chords(tri, [(4, "1/2")])
    m = CurveClass.from_words(tri, [a.word, c.word])
    assert m.component_count == 2
    assert m.weights == tuple(x + y for x, y in zip(a.weights, c.weights))
    assert sorted(m.components()) == sorted([a, c])


def test_doubled_word_rejected():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [(0, "1/2")])
    doubled = a.word + a.word
    with pytest.raises(ValueError):
        CurveClass.from_word(tri, doubled)


def test_vertex_link_rejected():
    # The full-link swap puts the empty word into the closure of the
    # link, so it is rejected as the trivial loop, alone or beside an
    # essential component.
    for g in (2, 3, 4):
        tri = standard_triangulation(g)
        a = curve_from_chords(tri, [(0, "1/2")])
        for link in (tri.vertex_link, reverse_word(tri.vertex_link, tri.mate)):
            for words in ([link], [a.word, link]):
                with pytest.raises(ValueError, match="reduces to the trivial loop"):
                    CurveClass.from_words(tri, words)


def test_invalid_words_rejected():
    tri = standard_triangulation(2)
    with pytest.raises(ValueError):
        CurveClass.from_word(tri, ())
    with pytest.raises(ValueError):
        # Letter 0 enters triangle 0; a second letter 0 does not exit it.
        CurveClass.from_word(tri, (0, 0))
    with pytest.raises(ValueError):
        # Letters entering triangles 0 and 3 are never consecutive.
        CurveClass.from_word(tri, (0, 10))
    with pytest.raises(ValueError, match="unknown letter -1"):
        CurveClass.from_word(tri, (-1, 3, 4))
    # Checked before the word is encoded as a string, one code point
    # per letter.
    top = 3 * tri.num_triangles
    for bad in (top, 2**40):
        with pytest.raises(ValueError, match=f"unknown letter {bad}$"):
            CurveClass.from_word(tri, (0, bad, 4))
    with pytest.raises(ValueError):
        # A backtrack x, mate[x] reduces to the trivial loop.
        CurveClass.from_word(tri, (0, tri.mate[0]))
    with pytest.raises(ValueError):
        CurveClass.from_weights(tri, [0] * tri.num_edges)
    with pytest.raises(ValueError):
        CurveClass.from_weights(tri, [1] + [0] * (tri.num_edges - 1))


def test_validate_word_messages():
    tri = standard_triangulation(2)
    curves.validate_word(tri, curve_from_chords(tri, [(0, "1/2")]).word)
    top = 3 * tri.num_triangles
    for word, message in [
        ((), "empty word"),
        ((-1, 3, 4), "unknown letter -1"),
        ((0, top, 4), f"unknown letter {top}"),
        ((0, 2**40, 4), f"unknown letter {2**40}"),
        ((0, 10), "consecutive letters do not share a triangle"),
        ((0, tri.mate[0]), "word has a backtrack"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            curves.validate_word(tri, word)


def test_curve_json_round_trip():
    tri = standard_triangulation(2)
    for spec in ([(0, "1/2")], [(1, "1/2")]):
        c = curve_from_chords(tri, spec)
        assert CurveClass.from_json(c.to_json()) == c


def test_partner_side():
    assert partner_side(0) == 2
    assert partner_side(2) == 0
    assert partner_side(1) == 3
    assert partner_side(5) == 7
