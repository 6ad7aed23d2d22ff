"""The run-by-run closure and flat tracer against the code they replaced.

For every input, `vertex_canonical` must return the words of the kept
closures, the letter-by-offset, tuple and string ones, `word_weights`
must count as the per-letter loop did, `CurveClass.from_words` must
store the words the old rule stored (or raise the same error), and the
tracer must give the oracle's cycles on the class's weights and the
oracle's corner table (or error) on any weight vector.  Inputs are the
generators, the raw unreduced words that `ops.twist` and
`ops.band_sum` hand to `from_texts` and `from_words`, twisted
multicurves, long twist ladder rungs and `hypothesis` twist words; the
raw words of the scale ladders, up to 5,484 letters, are compared with
the tuple and string closures, and so are the raw words of twisting the
genus-2 ladder's rungs along a_1 up to 795 letters, and every input the
closure gets in one seed-101 pass of each benchmark workload.  On every
weight vector traced in that pass, on parallel copies of the shorter
ones and on disjoint unions of handle curves mapped by twist words, the
tracer must give the cycles of the loop that marked every point it
passed (`canonical_oracle.marking_trace`).

The closure swaps each maximal run once and decides from the trace of
the word being swapped whether the swap is an isotopy: every swap
inside a run must reduce to the run's swap, runs longer than the link
included, and on every word of those closures that traces to itself
the innermost rule must agree with the retrace of the swap.  Words
that do not trace to themselves must end, or raise, as the string
closure does.  Twisting the 795-letter rung along a_1 traces no more
words than its closure holds.
`kernel.min_rotation` must return Booth's rotation on short words over
few letters, on random words, on the P^k Q words where cutting at
single least letters would go quadratic, on `hypothesis` words of
repeated least-letter runs, and on every encoded word
`kernel.min_rotation` is given while the scale ladders are built.
"""

import contextlib
import functools
import itertools
import random

import canonical_oracle as oracle
import tuple_words
import workload_pass
from hypothesis import given, settings
from hypothesis import strategies as st

from cbgraph import curves, kernel, ops
from cbgraph.curves import CurveClass, _Tracer, vertex_canonical, word_weights
from cbgraph.kernel import decode, encode
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation

TRIS = {g: standard_triangulation(g) for g in (2, 3, 4)}


def _generators(tri):
    g = tri.genus
    return handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]


@contextlib.contextmanager
def _raw_words():
    """Record the words every outermost `from_words` or `from_texts`
    call receives, texts decoded; `from_words` calls `from_texts`, and
    that inner call is not recorded again."""
    calls = []
    kept = {name: CurveClass.__dict__[name] for name in ("from_words", "from_texts")}
    depth = [0]

    def recorder(name, to_word):
        def record(cls, tri, words):
            words = list(words)
            if not depth[0]:
                calls.append((tri, [to_word(w) for w in words]))
            depth[0] += 1
            try:
                return kept[name].__func__(cls, tri, words)
            finally:
                depth[0] -= 1

        return classmethod(record)

    CurveClass.from_words = recorder("from_words", tuple)
    CurveClass.from_texts = recorder("from_texts", decode)
    try:
        yield calls
    finally:
        for name, method in kept.items():
            setattr(CurveClass, name, method)


def _outcome(build, tri, words):
    try:
        return build(tri, words)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _rule_against_retrace(tri, text):
    """Walk the closure of an encoded word as the retracing closure did,
    one swap per maximal run, each kept when it traces to itself.

    Returns the closure and, per nonempty swap of a closure word that
    traces to one cycle equal to itself, (the innermost rule's verdict,
    the retrace's).
    """
    tables = curves.translate_tables(tri)
    flip, n = tables.flip, len(tri.vertex_link)
    start = kernel.cyclic_reduce(text, flip)
    seen = {kernel.canonical_cyclic(start, flip)} if start else set()
    frontier, verdicts = list(seen), []
    while frontier:
        nxt = []
        for word in frontier:
            weights, cycles = curves._trace(tri, tables, word)
            pos = curves._aligned(flip, word, cycles)
            for ahead, (succ, dbl) in zip((True, False), tables.directions):
                for i, k in curves._maximal_runs(word, succ, n, n // 2):
                    cand = curves._swap(word, i, k, dbl, flip)
                    kept = not cand or curves._traces_to_itself(tri, tables, cand)
                    if cand and pos is not None:
                        rule = curves._innermost(tri, word, weights, pos, i, k, ahead)
                        verdicts.append((rule, kept))
                    if kept and cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return seen, verdicts


def _assert_string_closure(tri, text, trace=None):
    """The closure of an encoded word, with its trace if given, returns
    the string closure's word; so does the retrace walk, with the rule
    agreeing on every swap.  Returns the closure and how many swaps the
    rule decided."""
    got = curves._vertex_canonical(tri, text, trace)[0]
    assert got == oracle.string_vertex_canonical(tri, text)
    closure, verdicts = _rule_against_retrace(tri, text)
    assert all(rule == kept for rule, kept in verdicts)
    assert got == (min(closure, key=lambda w: (len(w), w)) if closure else "")
    return closure, len(verdicts)


def _assert_same(tri, words):
    assert word_weights(tri, words) == oracle.count_weights(tri, words)
    for w in words:
        got = vertex_canonical(tri, w)
        assert got == oracle.vertex_canonical(tri, w)
        assert got == oracle.tuple_vertex_canonical(tri, w)
        _assert_string_closure(tri, encode(w))
    got = _outcome(lambda t, ws: CurveClass.from_words(t, ws).words, tri, words)
    assert got == _outcome(oracle.parent_words, tri, words)
    if got[0] != "ValueError":
        weights = word_weights(tri, got)
        assert _Tracer(tri, weights).components() == oracle.compact_trace(tri, weights)


def _push(c, word):
    for d, p in word:
        c = ops.twist(c, d, p)
    return c


def test_vertex_link_is_null():
    for tri in TRIS.values():
        for w in (tri.vertex_link, tuple_words.reverse_word(tri.vertex_link, tri.mate)):
            assert vertex_canonical(tri, w) == ()
            assert oracle.vertex_canonical(tri, w) == ()


def test_generators():
    for tri in TRIS.values():
        for c in _generators(tri):
            _assert_same(tri, list(c.words))


def test_raw_twist_and_band_sum_words():
    rng = random.Random(1508)
    checked = 0
    for tri in TRIS.values():
        gens = _generators(tri)
        g = tri.genus
        for _ in range(8):
            phi = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
            k = rng.randrange(g)
            a, b = gens[2 * k], gens[2 * k + 1]
            with _raw_words() as calls:
                c = _push(rng.choice(gens), phi)
                ops.twist(c, rng.choice(gens), rng.choice((1, -1, 2, -2)))
                ops.band_sum(_push(a, phi), _push(b, phi))
            for t, words in calls:
                _assert_same(t, words)
                checked += 1
    assert checked > 100


def test_multicurves():
    # One handle curve per handle, listed in reverse, then twisted: the
    # raw words are one per component.
    rng = random.Random(2993)
    checked = 0
    for tri in TRIS.values():
        gens = _generators(tri)
        cores = [gens[2 * k].word for k in reversed(range(tri.genus))]
        for _ in range(4):
            with _raw_words() as calls:
                m = CurveClass.from_words(tri, cores)
                ops.twist(m, rng.choice(gens), rng.choice((1, -1)))
            for t, words in calls:
                assert len(words) == tri.genus
                _assert_same(t, words)
                checked += 1
    assert checked == 24


def _corner_outcome(table):
    try:
        return table()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _oracle_corners(tri, w):
    return [oracle.corner_counts(w[a], w[b], w[c]) for a, b, c in tri.triangles]


def test_tracer_corner_table():
    # Nonnegative combinations of generator weights are normal coordinates;
    # random even vectors mostly break a triangle inequality.
    rng = random.Random(3650)
    valid = 0
    for tri in TRIS.values():
        gens = [c.weights for c in _generators(tri)]
        for _ in range(60):
            ks = [rng.randrange(4) for _ in gens]
            w = [sum(k * g[e] for k, g in zip(ks, gens)) for e in range(tri.num_edges)]
            assert _Tracer(tri, w).corners == _oracle_corners(tri, w)
            even = [2 * rng.randrange(5) for _ in range(tri.num_edges)]
            got = _corner_outcome(lambda: _Tracer(tri, even).corners)
            assert got == _corner_outcome(lambda: _oracle_corners(tri, even))
            valid += got[0] != "ValueError"
    assert valid > 0


def test_tracer_errors_in_order():
    # Each vector trips its rule and every later one; the first rule wins.
    for tri in TRIS.values():
        n = tri.num_edges
        cases = [
            ([-1] * (n + 1), "weight vector has wrong length"),
            ([-1] + [0] * (n - 1), "negative weight"),
            ([3] + [0] * (n - 1), "odd weight sum in a triangle"),
            ([2] + [0] * (n - 1), "triangle inequality violated by weights"),
        ]
        for w, message in cases:
            got = _corner_outcome(lambda: _Tracer(tri, w).corners)
            assert got == ("ValueError", message)
            if len(w) == n and min(w) >= 0:
                assert _corner_outcome(lambda: _oracle_corners(tri, w)) == got


def test_twist_ladder_rungs():
    # The twists that build rungs of about 2,000 letters, alternating a
    # handle curve and a chain connector as in the drawing oracle test.
    for g, k in ((2, 0), (3, 1)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        j = k + 1 if k < g - 1 else k - 1
        conn = chain_connector(tri, min(j, k))
        a, b = hs[2 * k], hs[2 * k + 1]
        c, n = b, 0
        while len(c.word) < 2000:
            d, p = ((a, 1), (conn, -1))[n % 2]
            with _raw_words() as calls:
                c = ops.twist(c, d, p)
            n += 1
        (t, words), = calls
        assert len(words[0]) > 2000
        _assert_same(t, words)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3, 4)), data=st.data())
def test_twist_words_agree(genus, data):
    tri = TRIS[genus]
    gens = _generators(tri)
    pick = st.integers(0, len(gens) - 1)
    word = st.lists(st.tuples(pick, st.sampled_from((1, -1))), min_size=1, max_size=6)
    with _raw_words() as calls:
        _push(gens[data.draw(pick, label="base")], [(gens[i], p) for i, p in data.draw(word, label="word")])
    for t, words in calls:
        _assert_same(t, words)


def test_min_rotation_on_all_short_words():
    for n in range(10):
        for w in itertools.product(range(3), repeat=n):
            assert tuple_words.min_rotation(w) == oracle.min_rotation(w), w


def test_min_rotation_on_random_words():
    # Letters include the code points regular expressions treat specially
    # and the ends of the code point range.
    rng = random.Random(1980)
    special = [0, 1, 45, 91, 92, 93, 94, 0xD800, 0x10FFFF]
    for _ in range(3000):
        alphabet = rng.choice((range(2), range(4), range(42), special))
        w = [rng.choice(alphabet) for _ in range(rng.randint(0, 80))]
        assert tuple_words.min_rotation(w) == oracle.min_rotation(w), w


def test_min_rotation_on_powers_with_one_defect():
    # P^k Q: one block per P, so blocks must be cut at runs of the least
    # letter for the rank string to halve each round.
    shapes = [((0, 1), (0, 2)), ((0, 2), (0, 1)), ((0, 0, 1), (0, 1)), ((1,), (0,)), ((0,), (1,))]
    for k in (1, 2, 3, 10, 1000):
        for p, q in shapes:
            for w in (p * k + q, q + p * k, p * k):
                assert tuple_words.min_rotation(w) == oracle.min_rotation(w)
    for p, q in shapes:
        w = p * 10**5 + q
        assert tuple_words.min_rotation(w) == oracle.min_rotation(w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 4), st.lists(st.integers(1, 3), min_size=1, max_size=3)),
        min_size=1,
        max_size=6,
    ),
    repeat=st.integers(1, 4),
    shift=st.integers(0, 100),
    base=st.sampled_from((0, 62, 70, 0xD800)),
)
def test_min_rotation_on_repeated_least_letter_runs(blocks, repeat, shift, base):
    # Runs of the least letter of several lengths, repeated, so that the
    # later rounds rank repeated runs of the least block; the least
    # letter is code point 0, as every later round's least block rank
    # is, or lies above it.
    w = [base + x for k, rest in blocks for x in [0] * k + rest] * repeat
    k = shift % len(w)
    w = w[k:] + w[:k]
    assert tuple_words.min_rotation(w) == oracle.min_rotation(w)


def _scale_ladders():
    """Build the scale workload's genus-2 and genus-3 twist ladders, up
    to 5,484 letters."""
    for g, k, most in ((2, 0, 5000), (3, 1, 2500)):
        tri = TRIS[g]
        hs = handle_curves(tri)
        conn = chain_connector(tri, min(k, k + 1 if k < g - 1 else k - 1))
        c, n = hs[2 * k + 1], 0
        while len(c.word) < most:
            d, p = ((hs[2 * k], 1), (conn, -1))[n % 2]
            c = ops.twist(c, d, p)
            n += 1


def test_string_closure_on_scale_ladder_rungs():
    # The raw twist words the rungs are built from, against the tuple
    # closure only: the letter-by-offset one is quadratic in the length.
    with _raw_words() as calls:
        _scale_ladders()
    assert max(len(words[0]) for _, words in calls) > 5000
    for tri, words in calls:
        for w in words:
            assert vertex_canonical(tri, w) == oracle.tuple_vertex_canonical(tri, w)
            _assert_string_closure(tri, encode(w))


@functools.lru_cache(maxsize=None)
def _a1_twists():
    """(raw word, traces, closure, swaps decided) for twisting each rung
    of the genus-2 handle-0 ladder of at most 800 letters along a_1, in
    order: the word `from_texts` gets, the weights of each
    `_Tracer.components` call, and `_assert_string_closure` of the word."""
    tri = TRIS[2]
    hs = handle_curves(tri)
    conn = chain_connector(tri, 0)
    c, n, out = hs[1], 0, []
    kept = _Tracer.components
    while True:
        c = ops.twist(c, *((hs[0], 1), (conn, -1))[n % 2])
        n += 1
        if len(c.word) > 800:
            return out
        traces = []

        def probe(self):
            traces.append(tuple(self.w))
            return kept(self)

        _Tracer.components = probe
        try:
            with _raw_words() as calls:
                ops.twist(c, hs[2], 1)
        finally:
            _Tracer.components = kept
        for _, words in calls:  # none when c misses a_1
            out.append((words[0], traces, *_assert_string_closure(tri, encode(words[0]))))


def test_a1_twists_of_ladder_rungs():
    # The closures of these words run to 35 words of 1,059 letters, where
    # the retracing closure retraced 1,156 swaps.
    assert sum(decided for *_, decided in _a1_twists()) > 1000


def test_a1_twist_of_the_795_letter_rung_traces_at_most_its_closure():
    word, traces, closure, _ = _a1_twists()[-1]
    assert len(word) > 1000
    assert len(closure) == 35
    assert len(traces) <= len(closure)


def _assert_one_swap_per_run(tri, text):
    """Every swap the retracing closure built from a cyclically reduced
    encoded word, (i, kk) for each kk of each run start i, reduces to
    the swap of the maximal run holding i, capped at the link."""
    tables = curves.translate_tables(tri)
    flip, n = tables.flip, len(tri.vertex_link)
    for succ, dbl in tables.directions:
        runs = list(curves._maximal_runs(text, succ, n, n // 2))
        for i, k in oracle.parallel_runs(text, succ, n, n // 2):
            # The maximal run holding i is the one starting last at or before it.
            s, whole = min(runs, key=lambda run: (i - run[0]) % len(text))
            swaps = {curves._swap(text, i, kk, dbl, flip) for kk in range(n // 2, k + 1)}
            assert swaps == {curves._swap(text, s, whole, dbl, flip)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(genus=st.sampled_from((2, 3)), data=st.data())
def test_every_swap_inside_a_maximal_run_reduces_to_its_swap(genus, data):
    # Link runs of half the link to twice its length and more, from a
    # random corner in either direction, between random letters; the
    # word is reduced, so a run may shrink or merge with another.
    tri = TRIS[genus]
    tables = curves.translate_tables(tri)
    n = len(tri.vertex_link)
    letters = st.lists(st.integers(0, 3 * tri.num_triangles - 1), max_size=5)
    pieces = []
    for _ in range(data.draw(st.integers(1, 3), label="runs")):
        _, dbl = tables.directions[data.draw(st.integers(0, 1), label="direction")]
        j = data.draw(st.integers(0, n - 1), label="corner")
        size = data.draw(st.integers(n // 2, 2 * n + 3), label="length")
        pieces.append(encode(data.draw(letters, label="between")))
        pieces.append((dbl * 3)[j : j + size])
    text = kernel.cyclic_reduce("".join(pieces), tables.flip)
    _assert_one_swap_per_run(tri, text)
    got = _outcome(lambda t, w: curves._vertex_canonical(t, w)[0], tri, text)
    assert got == _outcome(oracle.string_vertex_canonical, tri, text)


def test_runs_longer_than_the_link_reduce_to_one_swap(monkeypatch):
    # One link run of n - 1 to 2n + 3 letters and one letter closing
    # the word that neither cancels nor continues the run, and powers of
    # the link.  None of them traces to itself, so the closure retraces
    # their swaps, and must end, or raise, as the string closure does.
    retraced = []
    kept = curves._traces_to_itself
    monkeypatch.setattr(curves, "_traces_to_itself", lambda *a: retraced.append(a) or kept(*a))
    for tri in (TRIS[2], TRIS[3]):
        tables = curves.translate_tables(tri)
        n = len(tri.vertex_link)
        for succ, dbl in tables.directions:
            words = [dbl[:n] * power for power in (1, 2, 3)]
            for j in range(0, n, 9):
                for size in (n - 1, n + 1, 2 * n + 3):
                    run = (dbl * 3)[j : j + size]
                    ends = {succ[ord(run[-1])], tables.flip[ord(run[-1])], tables.flip[ord(run[0])]}
                    x = next(chr(y) for y in range(3 * tri.num_triangles) if chr(y) not in ends)
                    words.append(run + x)
            for text in words:
                assert kernel.cyclic_reduce(text, tables.flip) == text
                _assert_one_swap_per_run(tri, text)
                got = _outcome(lambda t, w: curves._vertex_canonical(t, w)[0], tri, text)
                assert got == _outcome(oracle.string_vertex_canonical, tri, text)
    assert retraced


def test_min_rotation_on_scale_ladder_inputs(monkeypatch):
    # Every word the closure canonicalises while the scale ladders are
    # built; it rotates encoded words, so those are recorded.
    inputs = []
    kept = kernel.min_rotation

    def record(text):
        inputs.append(text)
        return kept(text)

    monkeypatch.setattr(kernel, "min_rotation", record)
    _scale_ladders()
    assert max(map(len, inputs)) == 5484
    for text in inputs:
        assert decode(kept(text)) == oracle.min_rotation(decode(text))


def test_every_closure_input_of_a_workload_pass():
    # One seed-101 pass of each benchmark workload, its set-up included,
    # each distinct input with the trace it came with.
    inputs = workload_pass.recorded().closures
    decided = 0
    for (tri, text), trace in inputs.items():
        decided += _assert_string_closure(tri, text, trace)[1]
    assert len(inputs) > 1000 and decided > 500


def test_tracer_loops_agree_on_a_workload_pass():
    # Every weight vector traced in the pass, twice and three times the
    # shorter ones (parallel copies), and disjoint unions: the handle
    # curves a_k at genus 2-4, and their images under twist words.
    traced = list(workload_pass.recorded().traced)
    inputs = traced + [
        (tri, tuple(k * x for x in w)) for tri, w in traced if sum(w) <= 1000 for k in (2, 3)
    ]
    rng = random.Random(45)
    for tri in TRIS.values():
        gens = _generators(tri)
        for n in range(6):
            word = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(n)]
            handles = [_push(a, word) for a in handle_curves(tri)[::2]]
            inputs.append((tri, tuple(map(sum, zip(*(h.weights for h in handles))))))
    letters = multi = 0
    for tri, w in inputs:
        got = _Tracer(tri, w).components()
        assert got == oracle.marking_trace(tri, w)
        letters += sum(w)
        multi += len(got) > 1
    assert len(traced) > 1000 and letters > 300_000 and multi > 2000
