import gc
import random
import tracemalloc
import weakref

import dehn_oracle
import pytest
from reducer_oracle import arc_letters
from tuple_words import cyclic_reduce, reverse_word

from cbgraph import dehn, kernel
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.kernel import decode, encode
from cbgraph.polygon import chain_connector, curve_from_chords, handle_curves
from cbgraph.position import Reduced
from cbgraph.surface import standard_triangulation


def _handles(tri):
    a = curve_from_chords(tri, [0])
    b = curve_from_chords(tri, [1])
    return a, b


def test_word_problem_identities():
    for g in (2, 3):
        assert dehn_oracle.is_trivial(g, ())
        # Free reduction alone kills a letter against its inverse.
        assert dehn_oracle.is_trivial(g, (1, -1))
        assert dehn_oracle.is_trivial(g, (3, 2, -2, -3))
        # Single generators and short commutators survive.
        assert not dehn_oracle.is_trivial(g, (1,))
        assert not dehn_oracle.is_trivial(g, (1, 2, -1, -2))
        rel = dehn_oracle._relators(g)[0]
        assert dehn_oracle.is_trivial(g, rel)
        assert dehn_oracle.is_trivial(g, tuple(-x for x in reversed(rel)))
    # The simple dual loops free reduction calls null: the empty loop,
    # and every rotation of the vertex link and of its reverse.
    for g in (2, 3, 4):
        tri = standard_triangulation(g)
        assert dehn.is_trivial(tri, "")
        for link in (tri.vertex_link, reverse_word(tri.vertex_link, tri.mate)):
            for i in range(len(link)):
                loop = encode(link[i:] + link[:i])
                assert dehn.is_trivial(tri, loop)
                assert dehn_oracle.loop_is_trivial(tri, loop)


def test_word_problem_random_trivial_words():
    # Products of conjugated relators must reduce to the identity.
    rng = random.Random(23)
    for g in (2, 3):
        rels = dehn_oracle._relators(g)
        for _ in range(40):
            word = []
            for _ in range(rng.randint(1, 3)):
                conj = [rng.choice((1, -1)) * rng.randint(1, 2 * g)
                        for _ in range(rng.randint(0, 4))]
                rel = list(rng.choice(rels))
                word.extend(conj + rel + [-x for x in reversed(conj)])
            assert dehn_oracle.is_trivial(g, tuple(word))


def test_long_conjugate_of_a_generator():
    # u . 7 . u^-1 with |u| = 40,000: the end strip is linear, where
    # popping the front of a list made it quadratic.
    rng = random.Random(29)
    u = [rng.choice((1, -1)) * rng.randint(1, 8) for _ in range(40_000)]
    word = tuple(u) + (7,) + tuple(-x for x in reversed(u))
    assert cyclic_reduce(word, dehn_oracle._inverse(4)) == (7,)
    assert not dehn_oracle.is_trivial(4, word)
    # The kernel's text pass on letters 0..15, mates 2i <-> 2i+1: u holds
    # even letters only, so it is reduced and the end strip takes 40,000
    # steps.
    mate = [x ^ 1 for x in range(16)]
    u = [2 * rng.randrange(8) for _ in range(40_000)]
    text = encode(u + [14] + list(reverse_word(u, mate)))
    assert kernel.cyclic_reduce(text, encode(mate)) == encode((14,))


def test_word_problem_random_nontrivial_words():
    # Freely reduced words that avoid long relator pieces stay nontrivial;
    # certify by abelianization instead of trusting the algorithm.
    rng = random.Random(31)
    g = 2
    for _ in range(60):
        word = []
        for _ in range(rng.randint(1, 6)):
            x = rng.choice((1, -1)) * rng.randint(1, 2 * g)
            if word and x == -word[-1]:
                x = -x
            word.append(x)
        abelian = [0] * (2 * g)
        for x in word:
            abelian[abs(x) - 1] += 1 if x > 0 else -1
        if any(abelian):
            assert not dehn_oracle.is_trivial(g, tuple(word))


def test_curve_path_words_are_nontrivial():
    # An essential curve is not null-homotopic.
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    for c in (a, b):
        for w in c.words:
            assert not dehn_oracle.is_trivial(2, dehn_oracle.path_word(tri, w))
    # Nor is it for free reduction against the vertex link.
    for g in (2, 3, 4):
        tri = standard_triangulation(g)
        for c in handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]:
            assert not dehn.is_trivial(tri, c.texts[0])
            assert not dehn_oracle.loop_is_trivial(tri, c.texts[0])


def test_drawing_chords_cover_curve():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    d = Drawing(tri, [a, b])
    assert sorted(s.curve for s in d.strands) == [0, 1]
    for s in d.strands:
        c = (a, b)[s.curve]
        assert s.letters in c.texts
        assert len(s.keys) == len(s.letters)
    # Keys are integer indices on each edge, distinct across both curves.
    totals = [wa + wb for wa, wb in zip(a.weights, b.weights)]
    on_edge = {}
    for s in d.strands:
        for lam, k in zip(decode(s.letters), s.keys):
            e = tri.side_edge[lam]
            assert isinstance(k, int) and 0 <= k < totals[e]
            on_edge.setdefault(e, []).append(k)
    for e, ks in on_edge.items():
        assert len(set(ks)) == len(ks) == totals[e]


def test_drawing_rejects_more_than_two_curves():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    c = curve_from_chords(tri, [4])
    with pytest.raises(ValueError):
        Drawing(tri, [a, b, c])


def test_drawing_algebraic_sign_conventions():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    d = Drawing(tri, [a, b])
    assert d.raw_count(0, 1) >= 1
    assert d.algebraic(0, 1) == -d.algebraic(1, 0) != 0
    assert abs(d.algebraic(0, 1)) <= d.raw_count(0, 1)
    assert d.algebraic(0, 1) % 2 == d.raw_count(0, 1) % 2
    # Every crossing joins the two curves: none is counted within one.
    assert d.raw_count(1, 0) == d.raw_count(0, 1)
    assert d.raw_count(0, 0) == d.raw_count(1, 1) == 0
    assert d.algebraic(0, 0) == d.algebraic(1, 1) == 0
    r = Reduced(d)
    curve_of = [d.strands[m].curve for m in r.strand_of]
    assert all(curve_of[h] != curve_of[r.other[h]] for h in range(len(r.cross)))
    assert Drawing(tri, [a]).raw_count(0, 0) == 0


def test_arc_letters_concatenate_to_strand():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    d = Drawing(tri, [a, b])
    for s in d.strands:
        seq = d.strand_sequence(s)
        if not seq:
            continue
        total = []
        n = len(seq)
        for i in range(n):
            total.extend(arc_letters(s, seq[i], seq[(i + 1) % n]))
        # The concatenated arcs are a rotation of the strand word.
        assert sorted(total) == sorted(s.letters)
        k = len(total)
        assert any(
            "".join(total) == s.letters[i:] + s.letters[:i] for i in range(k)
        )


def test_reduction_agrees_with_algebraic_certificate():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    d = Drawing(tri, [a, b])
    r = Reduced(d)
    assert r.count() == abs(d.algebraic(0, 1)) == 1


def test_reduction_removes_forced_excess():
    # c and its image under a trivial isotopy class must meet 0 times
    # even when drawn with crossings: reduce a curve against a distinct
    # normal representative of a disjoint class.
    from cbgraph import ops

    tri = standard_triangulation(2)
    a, b = _handles(tri)
    t = ops.twist(b, a, 1)
    back = ops.twist(t, a, -1)
    assert back == b
    d = Drawing(tri, [b, back])
    if d.raw_count(0, 1):
        assert Reduced(d).count() == 0


def test_reverse_word_is_an_involution_on_curve_words():
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    flip = encode(tri.mate)
    for c in (a, b):
        for w in c.texts:
            assert kernel.reverse_word(kernel.reverse_word(w, flip), flip) == w


def test_curve_class_equality_across_drawings():
    # Rebuilding a class from a drawn strand word reproduces the class.
    tri = standard_triangulation(2)
    a, b = _handles(tri)
    d = Drawing(tri, [a, b])
    for s in d.strands:
        c = (a, b)[s.curve]
        assert CurveClass.from_texts(tri, [s.letters]) == c


def test_vertex_canonical_reduction():
    from cbgraph.curves import vertex_canonical
    from cbgraph.kernel import canonical_cyclic

    for g in (2, 3):
        tri = standard_triangulation(g)
        # The vertex link bounds the disk around the vertex.
        assert vertex_canonical(tri, tri.vertex_link) == ()
        a, b = _handles(tri)
        for c in (a, b):
            assert vertex_canonical(tri, c.words[0]) == c.words[0]
        # Inserting a full trip around the vertex is a null detour:
        # the canonical form drops straight back to the short word.
        link = tuple(tri.vertex_link)
        n = len(link)
        base = a.words[0]
        at = tri.side_of(base[0])[0]
        hit = False
        for j in range(n):
            if tri.side_of(tri.mate[link[j]])[0] != at:
                continue
            rot = tuple(link[(j + t) % n] for t in range(n))
            word = base[:1] + rot + base[1:]
            got = CurveClass.from_word(tri, word)
            assert got == a
            hit = True
        assert hit


def test_drawings_are_freed_by_reference_counting():
    # A drawing holds no reference cycle, so a dead drawing, its bigon
    # reduction and the drawings the curve operations build are freed
    # without the cyclic collector, the pair record's included.
    from cbgraph import ops

    tri = standard_triangulation(2)
    a, b, a1, _ = handle_curves(tri)
    conn = chain_connector(tri, 0)
    c = ops.twist(ops.twist(b, a, 1), conn, -1)
    d = Drawing(tri, [c, a1])
    assert d.raw_count(0, 1) > abs(d.algebraic(0, 1))  # bigons to remove
    del d
    gc.collect()
    gc.disable()
    try:
        drawing = Drawing(tri, [c, a1])
        reduced = Reduced(drawing)
        assert reduced.count() < drawing.raw_count(0, 1)
        refs = weakref.ref(drawing), weakref.ref(reduced)
        del drawing, reduced
        assert [r() for r in refs] == [None, None]
        for call in (
            lambda: ops.twist(c, conn, 1),
            lambda: ops.intersect(c, a1),
            lambda: ops.neighborhood_profile([c, a1]),
        ):
            call()
            assert gc.collect() == 0
        # The pair record's drawing and reduction go as soon as another
        # pair is drawn.
        ops.neighborhood_profile([c, a1])
        refs = weakref.ref(ops.LAST_PAIR.drawing), weakref.ref(ops.LAST_PAIR.reduced)
        ops.twist(a1, conn, 1)
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_drawing_memory_per_letter():
    # A drawing keeps a long strand's letters and keys flat: drawing a
    # genus-2 ladder rung of 5,484 letters against the 2-letter a_0
    # peaks below 120 bytes and holds below 60 bytes per rung letter.
    from cbgraph import ops

    tri = standard_triangulation(2)
    hs = handle_curves(tri)
    ladder = ((hs[0], 1), (chain_connector(tri, 0), -1))
    rung, n = hs[1], 0
    while len(rung.word) < 5000:
        rung = ops.twist(rung, *ladder[n % 2])
        n += 1
    ops.LAST_PAIR.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        drawing = Drawing(tri, [rung, hs[0]])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    letters = len(rung.word)
    assert letters >= 5000 and len(drawing.crossings) > 0
    assert (peak - before) / letters < 120
    assert (held - before) / letters < 60
