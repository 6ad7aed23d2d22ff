import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from cbgraph import curves, kernel, ops, surface
from cbgraph.kernel import decode, encode
from cbgraph.curves import CurveClass, trace_components, vertex_canonical, word_weights
from cbgraph.polygon import chain_connector, curve_from_chords, handle_curves, partner_side
from cbgraph.surface import Triangulation, standard_triangulation
from canonical_oracle import rescanning_cyclic_reduce
from tuple_words import (
    canonical_cyclic,
    canonical_reduced,
    cyclic_reduce,
    min_rotation,
    reverse_word,
)


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
    a = curve_from_chords(tri, [0])
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
    # The checksum is the hashlib digest of the sorted JSON, as stored.
    for g in range(2, 13):
        tri = Triangulation(g)
        payload = {"genus": g, "triangles": [list(t) for t in tri.triangles]}
        data = json.dumps(payload, sort_keys=True).encode()
        assert tri.checksum == hashlib.sha256(data).hexdigest()[:16]
    for g in (2, 3):
        asset = Path(surface.__file__).parent / "assets" / f"triangulation_g{g}.json"
        assert Triangulation(g).checksum == json.loads(asset.read_text())["checksum"]
    # Every padding case: lengths 55/56 and 119/120 straddle the room for
    # the length field in one and two blocks, 63/64 the block boundary.
    rng = random.Random(5)
    for n in [*range(131), 1000, 4096]:
        data = rng.randbytes(n)
        assert surface._sha256(data) == hashlib.sha256(data).hexdigest(), n


# Synthetic involution for kernel tests: mate pairs 2i <-> 2i+1.
MATE = tuple(x ^ 1 for x in range(10))
FLIP = encode(MATE)


def _kernel_reduce(w):
    """`kernel.cyclic_reduce` of an int-tuple word, decoded."""
    return decode(kernel.cyclic_reduce(encode(w), FLIP))


def test_cyclic_reduce():
    # The kernel's text pass, and the tuple copy that the oracles use.
    for reduce in (_kernel_reduce, lambda w: cyclic_reduce(w, MATE)):
        assert reduce(()) == ()
        assert reduce((0, 1)) == ()
        assert reduce((2, 0, 1, 4)) == (2, 4)
        assert reduce((0, 2, 3, 1)) == ()
        assert reduce((1, 4, 0)) == (4,)
        assert reduce((0, 2, 0, 2)) == (0, 2, 0, 2)
        # A conjugate u.c.u^-1 with a long u strips back to c, and to
        # nothing when c is empty.
        u = (0, 2, 4, 6, 8) * 400
        c = (3, 5)
        assert reduce(u + c + reverse_word(u, MATE)) == c
        assert reduce(u + reverse_word(u, MATE)) == ()
        assert reduce(u + (0, 1) + c + reverse_word(u, MATE)) == c
        # A nested cancellation u.u^-1 inside the word, with |u| = 4000.
        u = (0, 2, 4, 6, 8) * 800
        assert reduce((3,) + u + reverse_word(u, MATE) + (5,)) == (3, 5)


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
    # Every word of length <= 7 over 6 letters, then random longer ones,
    # through the kernel; the tuple copy must give the same rotation.
    words = itertools.chain.from_iterable(
        itertools.product(range(6), repeat=n) for n in range(8)
    )
    rng = random.Random(11)
    longer = [_nested_word(rng) for _ in range(500)]
    longer += [tuple(rng.randrange(10) for _ in range(400)) for _ in range(100)]
    for w in itertools.chain(words, longer):
        got, want = _kernel_reduce(w), rescanning_cyclic_reduce(w, MATE)
        assert got == cyclic_reduce(w, MATE), w
        assert len(got) == len(want), w
        assert got == want or any(
            got == want[i:] + want[:i] for i in range(1, len(want))
        ), w


def test_encoded_words_round_trip():
    for w in ((), (0,), (5, 0, 9), (0xD7FF, 0xD800, 0xDFFF, 0xE000, 0x10FFFF)):
        text = encode(w)
        assert len(text) == len(w)
        assert list(map(ord, text)) == list(w)
        assert decode(text) == w


def test_cyclic_reduce_text_is_cyclic_reduce():
    # Reduced words skip the stack pass; the others must not.
    rng = random.Random(17)
    words = [_nested_word(rng) for _ in range(200)]
    words += [tuple(rng.randrange(10) for _ in range(rng.randint(0, 12))) for _ in range(300)]
    words += [cyclic_reduce(w, MATE) for w in words]
    for w in words:
        assert _kernel_reduce(w) == cyclic_reduce(w, MATE)


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
        assert decode(kernel.canonical_cyclic(encode(w), FLIP)) == canonical_cyclic(w, MATE)


def _weights_on(tri, edges):
    w = [0] * tri.num_edges
    for e in edges:
        w[e] += 1
    return tuple(w)


def test_author_handle_curves_genus2():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [0])
    assert a.weights == _weights_on(tri, [0, 4])
    b = curve_from_chords(tri, [1])
    assert b.weights == _weights_on(tri, [1, 4, 5])
    c = curve_from_chords(tri, [4])
    assert c.weights == _weights_on(tri, [2, 7, 8])
    for x in (a, b, c):
        assert len(x.words) == 1
        assert not x.is_separating
        edges = [tri.side_edge[letter] for letter in x.words[0]]
        assert sorted(edges) == [e for e, n in enumerate(x.weights) for _ in range(n)]


def test_trace_round_trip():
    tri = standard_triangulation(2)
    for spec in ([0], [1], [5]):
        c = curve_from_chords(tri, spec)
        again = CurveClass.from_weights(tri, c.weights)
        assert again == c


def test_multicurve_from_disjoint_words():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [0])
    c = curve_from_chords(tri, [4])
    m = CurveClass.from_words(tri, [a.word, c.word])
    assert len(m.words) == 2
    assert m.weights == tuple(x + y for x, y in zip(a.weights, c.weights))
    assert sorted(m.components()) == sorted([a, c])


def test_doubled_word_rejected():
    tri = standard_triangulation(2)
    a = curve_from_chords(tri, [0])
    doubled = a.word + a.word
    with pytest.raises(ValueError):
        CurveClass.from_word(tri, doubled)


def test_vertex_link_rejected():
    # The full-link swap puts the empty word into the closure of the
    # link, so it is rejected as the trivial loop, alone or beside an
    # essential component.
    for g in (2, 3, 4):
        tri = standard_triangulation(g)
        a = curve_from_chords(tri, [0])
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


def test_words_are_a_decoded_view_of_the_texts():
    # A class stores each canonical word once, as text; `words`, `word`,
    # `repr` and the order read as they did on int tuples, and
    # `from_texts` builds the class `from_words` builds.
    rng = random.Random(34)
    for g in (2, 3):
        tri = standard_triangulation(g)
        gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]
        pool = list(gens)
        for _ in range(12):
            c = rng.choice(pool)
            pool.append(ops.twist(c, rng.choice(gens), rng.choice((1, -1))))
        pool.append(CurveClass.from_words(tri, [gens[2 * k].word for k in range(g)]))
        for c in pool:
            assert all(type(t) is str for t in c.texts)
            assert c.words == tuple(map(decode, c.texts))
            assert all(type(x) is int for w in c.words for x in w)
            assert list(c.texts) == sorted(c.texts)
            assert c.words == tuple(sorted(c.words))
            assert repr(c) == f"CurveClass(g={g}, words={list(c.words)})"
            if c.is_connected:
                assert c.word == c.words[0]
            assert CurveClass.from_texts(tri, c.texts) == c
            assert CurveClass.from_texts(tri, map(encode, c.words)) == c
        by_words = sorted(pool, key=lambda c: (c.weights, c.words))
        assert sorted(pool) == by_words
    tri = standard_triangulation(2)
    top = 3 * tri.num_triangles
    with pytest.raises(ValueError, match=f"^unknown letter {top}$"):
        CurveClass.from_texts(tri, [encode((0, top, 4))])
    with pytest.raises(ValueError, match="reduces to the trivial loop"):
        CurveClass.from_texts(tri, [""])


def test_validate_word_messages():
    tri = standard_triangulation(2)
    curves.validate_word(tri, curve_from_chords(tri, [0]).word)
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


def test_a_word_that_is_no_dual_path_is_refused_for_that():
    # A run of ten link letters, then a letter outside the last one's
    # triangle: the closure's retrace of the run fails first, yet the
    # error names the triangle condition, as it does for (0, 10).
    tri = standard_triangulation(2)
    for word in ((0, 10), tri.vertex_link[:10] + (0,)):
        with pytest.raises(ValueError, match="^consecutive letters do not share a triangle$"):
            CurveClass.from_word(tri, word)


def test_string_check_of_reduced_words_matches_validate_word():
    # Cyclically reduced words of random letters, and of random walks
    # that leave a triangle through a random side, which are valid paths
    # but for the step closing them: the string check must accept or
    # raise exactly as `validate_word` does.
    rng = random.Random(35)
    for g in (2, 3):
        tri = standard_triangulation(g)
        tables = curves.translate_tables(tri)
        top = 3 * tri.num_triangles
        outcomes = set()
        for _ in range(400):
            if rng.random() < 0.5:
                word = [rng.randrange(top) for _ in range(rng.randint(1, 12))]
            else:
                word = [rng.randrange(top)]
                for _ in range(rng.randint(1, 12)):
                    base = word[-1] - word[-1] % 3
                    sides = [x for x in range(base, base + 3) if x != word[-1]]
                    word.append(tri.mate[rng.choice(sides)])
            text = kernel.cyclic_reduce(encode(word), tables.flip)
            if not text:
                continue
            expected = _error(lambda: curves.validate_word(tri, decode(text)))
            assert _error(lambda: curves._validate_reduced(tri, tables, text)) == expected
            outcomes.add(expected)
        assert outcomes == {None, "consecutive letters do not share a triangle"}


def _error(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def test_curve_json_round_trip():
    tri = standard_triangulation(2)
    for spec in ([0], [1]):
        c = curve_from_chords(tri, spec)
        assert CurveClass.from_json(c.to_json()) == c


def test_curve_record_of_wrong_length_builds_no_triangulation(monkeypatch):
    # A genus below 2 keeps its own message, whatever the vector's length.
    for weights in ([2] * 9, []):
        with pytest.raises(ValueError, match="^genus must be >= 2$"):
            CurveClass.from_json({"genus": 1, "weights": weights})

    def refuse(genus):
        raise AssertionError(f"built the genus-{genus} triangulation")

    monkeypatch.setattr(curves, "standard_triangulation", refuse)
    for record in (
        {"genus": 20000, "weights": [1, 1, 0]},
        # Both faults: the length is reported, not the checksum.
        {"genus": 2, "weights": [2] * 8, "checksum": "0" * 16},
    ):
        with pytest.raises(ValueError, match="^weight vector has wrong length$"):
            CurveClass.from_json(record)


def test_partner_side():
    assert partner_side(0) == 2
    assert partner_side(2) == 0
    assert partner_side(1) == 3
    assert partner_side(5) == 7


@pytest.fixture
def traces(monkeypatch):
    """The weights of every `_Tracer.components` call, in order."""
    seen = []
    kept = curves._Tracer.components

    def probe(self):
        seen.append(tuple(self.w))
        return kept(self)

    monkeypatch.setattr(curves._Tracer, "components", probe)
    return seen


def test_from_weights_reuses_the_trace_of_kept_weights(traces):
    # Vertex-minimal weights are traced once, besides the closure words
    # after the first that the closure traces: the closure of the traced
    # cycle reads its positions off that trace, where the closure of
    # the bare word traces the word first.  The generators' closures
    # trace nothing.
    for genus in (2, 3, 4):
        tri = standard_triangulation(genus)
        gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(genus - 1)]
        twisted = [ops.twist(ops.twist(g, gens[-1], 1), gens[1], -1) for g in gens]
        for c in gens + twisted:
            curves._from_weights.cache_clear()
            traces.clear()
            assert CurveClass.from_weights(tri, c.weights) == c
            made = list(traces)
            traces.clear()
            vertex_canonical(tri, c.word)
            assert made == [c.weights] + traces[1:]
            if c in gens:
                assert made == [c.weights]


def test_from_weights_retraces_pushed_weights(traces):
    # A normal curve isotopic to a_0 across the vertex: its trace, which
    # also decides the push, and the round trip of the weights the push
    # gave.
    tri = standard_triangulation(2)
    a = handle_curves(tri)[0]
    pushed = (1, 0, 2, 2, 1, 2, 2, 2, 2)
    traces.clear()
    assert CurveClass.from_weights(tri, pushed) == a
    assert traces == [pushed, a.weights]


def test_round_trip_fails_on_the_reused_trace(traces):
    # The summed weights of tests/test_memos.py: the canonical words sum
    # to the input weights, so the round trip matches them against the
    # input trace, which runs two other cycles, and fails without
    # tracing the input again.
    tri = standard_triangulation(2)
    a = CurveClass.from_weights(tri, (3, 3, 4, 2, 2, 1, 4, 0, 2))
    b = CurveClass.from_weights(tri, (4, 0, 2, 4, 4, 8, 8, 6, 4))
    summed = tuple(x + y for x, y in zip(a.weights, b.weights))
    traces.clear()
    with pytest.raises(ValueError, match="round trip failed"):
        CurveClass.from_weights(tri, summed)
    assert traces.count(summed) == 1
