"""The trace a `CurveClass` keeps is the trace of its own weights.

`geom.Drawing` and `cut.CutComplex` read `CurveClass.trace` instead of
tracing the curve again, so for a class built by any route the kept
trace must be `_Tracer(tri, c.weights).components()` in traced order,
written compactly (encoded letters, `array("I")` positions), each cycle
paired with the text of `c.texts` it runs, the same `str`, whose decoded
word is a word of `c.words`.  The routes checked: `from_weights`,
`from_json`, `from_texts` on the raw text of `twist`, `from_words` on
that of `band_sum`, multicurves built from words and from weights, and
the classes `components()` returns.  The tracer must write the step
tracer's cycles in that form.

`from_weights` does not check the words it reads off a trace, which
are valid reduced dual paths by construction, so every word of a class
built by `from_weights` or `from_json` must pass `validate_word`, and
the check of canonical words (`curves._validate_reduced`, which runs
`validate_word`'s letter loop only on a word it refuses) must run on
words from callers only.
"""

from array import array

import canonical_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import curves, ops
from cbgraph.curves import CurveClass, _Tracer
from cbgraph.kernel import canonical_cyclic, decode, encode
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _assert_kept(c):
    expected = oracle.compact_trace(c.tri, c.weights)
    assert _Tracer(c.tri, c.weights).components() == expected
    for text, pos, _ in c.trace:
        assert type(text) is str and type(pos) is array and pos.typecode == "I"
    assert [(text, pos) for text, pos, _ in c.trace] == expected
    matched = [canon for _, _, canon in c.trace]
    assert sorted(matched) == list(c.texts)
    assert sorted(map(decode, matched)) == list(c.words)
    for (text, _), canon in zip(expected, matched):
        assert type(canon) is str and any(canon is t for t in c.texts)
        assert canonical_cyclic(text, encode(c.tri.mate)) == canon


def _rebuilt(c):
    """c by `from_weights` and by `from_json`, each built afresh."""
    curves._from_weights.cache_clear()
    by_weights = CurveClass.from_weights(c.tri, c.weights)
    curves._from_weights.cache_clear()
    by_json = CurveClass.from_json(c.to_json())
    assert by_weights == by_json == c
    for word in by_weights.words + by_json.words:
        curves.validate_word(c.tri, word)
    return [by_weights, by_json]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_kept_trace_is_the_trace_of_the_weights(genus, data):
    tri = TRIS[genus]
    handles = handle_curves(tri)
    gens = handles + [chain_connector(tri, k) for k in range(genus - 1)]
    pick = st.integers(0, len(gens) - 1)
    word = data.draw(
        st.lists(st.tuples(pick, st.sampled_from((1, -1))), max_size=4), label="word"
    )

    def push(c):
        for i, p in word:
            c = ops.twist(c, gens[i], p)
        return c

    a, b = push(handles[0]), push(handles[1])
    disjoint = [a] + [push(handles[2 * k]) for k in range(1, genus)]
    multi = CurveClass.from_words(tri, [c.word for c in disjoint])
    summed = [sum(col) for col in zip(*(c.weights for c in disjoint))]
    built = [a, b, ops.band_sum(a, b), multi, CurveClass.from_weights(tri, summed)]
    built += multi.components()
    for c in list(built):
        built += _rebuilt(c)
    for c in built:
        _assert_kept(c)
    assert sorted(multi.components()) == sorted(disjoint)


def test_only_words_from_callers_are_validated(monkeypatch):
    tri = TRIS[2]
    a, b = handle_curves(tri)[:2]
    checked = []
    kept = curves._validate_reduced

    def probe(t, tables, text):
        checked.append(text)
        kept(t, tables, text)

    monkeypatch.setattr(curves, "_validate_reduced", probe)
    twisted = ops.twist(a, b, 1)
    assert checked == list(twisted.texts)
    checked.clear()
    assert CurveClass.from_weights(tri, twisted.weights) == twisted
    assert CurveClass.from_json(a.to_json()) == a
    assert checked == []
