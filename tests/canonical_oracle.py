"""The letter-by-offset canonicaliser, the tuple and string closures,
the step tracer and Booth's least rotation, kept as oracles.

`vertex_canonical` here is the closure search that
`cbgraph.curves.vertex_canonical` replaced: it compares every word
position with every offset into the vertex link, where the kept code
marks the letters followed by their successor along the link with one
`str.translate` per direction.  `tuple_vertex_canonical` is the closure
that the string closure replaced: it reduced and canonicalised every
candidate as a tuple of letters.  It is kept as it was; its helpers are
renamed `_tuple_tables`, `_same_tuple_cycle` and `count_weights` (the
per-letter edge count that `word_weights` replaced), and it calls the
flat tracer as `flat_trace_components`.  `string_vertex_canonical` is
the string closure that the run-by-run closure replaced: it built a
swap for every start and length inside each run of at least half the
link (`parallel_runs`), and retraced every new swap to decide whether
it was an isotopy.  It is kept as it was, calling the kept tables
under their names in `cbgraph.curves` and the text word functions of
`cbgraph.kernel`; the tuple closures call their tuple forms in
`tuple_words`.  `StepTracer` is the normal arc
tracer that calls a method per step and builds a (letter, position)
tuple per crossing, where the kept one reads per-letter tables and
writes each cycle straight into the kept form; `compact_trace` writes
the step tracer's cycles in that form.  `marking_trace` is the flat
tracer loop that marked every point it passed and stopped at the first
marked one.  `parent_words` is the
class-building rule that canonicalised every traced word a second
time.  Tests require the kept code to give the same words, weights,
cycles and classes.
`rescanning_cyclic_reduce` is the word reduction that repeated whole
passes until nothing cancelled; the kept one must return a rotation of
its result.  `min_rotation` is Booth's linear-time least rotation (K. S.
Booth, "Lexicographically least circular substrings", IPL 1980), a loop
over the letters that the block-ranking `cbgraph.kernel.min_rotation`
replaced; the two must return the same rotation.  `corner_counts` is
the per-triangle corner rule that `cbgraph.curves.corner_counts` now
computes for a whole weight vector; the tracer's corner table, read
from it, and the tracer's errors must match it.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import eq

from tuple_words import canonical_cyclic, canonical_reduced, cyclic_reduce, reverse_word

from cbgraph import kernel
from cbgraph.curves import (
    MAX_VERTEX_CLOSURE,
    _same_cycle,
    _Tracer,
    _text_weights,
    translate_tables,
    validate_word,
)
from cbgraph.curves import trace_components as flat_trace_components
from cbgraph.kernel import encode
from cbgraph.surface import Triangulation


def word_weights(tri: Triangulation, words) -> tuple[int, ...]:
    """Normal coordinates of int-tuple words: the count of each edge."""
    return _text_weights(translate_tables(tri), map(encode, words))


def corner_counts(w0: int, w1: int, w2: int) -> tuple[int, int, int]:
    """Arc counts at the three corners of a triangle with side weights.

    Corner k lies between sides k-1 and k; the matching conditions (even
    sum, triangle inequalities) are exactly nonnegativity here.
    """
    total = w0 + w1 + w2
    if total % 2:
        raise ValueError("odd weight sum in a triangle")
    w = (w0, w1, w2)
    counts = tuple((w[k - 1] + w[k] - w[(k + 1) % 3]) // 2 for k in range(3))
    if any(c < 0 for c in counts):
        raise ValueError("triangle inequality violated by weights")
    return counts


class StepTracer:
    """Connects the normal arcs given by an edge-weight vector."""

    def __init__(self, tri: Triangulation, weights):
        self.tri = tri
        self.w = list(weights)
        if len(self.w) != tri.num_edges:
            raise ValueError("weight vector has wrong length")
        if any(x < 0 for x in self.w):
            raise ValueError("negative weight")
        self.corners = []
        for t in range(tri.num_triangles):
            e0, e1, e2 = tri.triangles[t]
            self.corners.append(corner_counts(self.w[e0], self.w[e1], self.w[e2]))

    def _across(self, t: int, slot: int, pos: int) -> tuple[int, int]:
        # Follow the arc through triangle t from the point at index pos on
        # side `slot` (indices count from the slot's start corner).
        n = self.corners[t]
        w_here = self.w[self.tri.triangles[t][slot]]
        if pos < n[slot]:
            # Arc at the slot's start corner, joining side slot-1.
            out = (slot - 1) % 3
            a = pos + 1
            return out, self.w[self.tri.triangles[t][out]] - a
        # Arc at the end corner, joining side slot+1.
        out = (slot + 1) % 3
        a = w_here - pos
        return out, a - 1

    def components(self) -> list[list[tuple[int, int]]]:
        """All traced components as cycles of (letter, position) crossings.

        Each step is a directed crossing 3t + s together with the index of
        the crossing point along the edge, counted in the frame of the
        edge's first listed incidence.
        """
        tri = self.tri
        seen = set()
        out = []
        for e in range(tri.num_edges):
            t0, s0 = tri.sides[e][0]
            for p in range(self.w[e]):
                if (e, p) in seen:
                    continue
                cycle = []
                t, slot, pos = t0, s0, p
                while True:
                    ce = tri.triangles[t][slot]
                    cpos = self._canonical_pos(t, slot, pos)
                    if (ce, cpos) in seen:
                        break
                    seen.add((ce, cpos))
                    cycle.append((3 * t + slot, cpos))
                    # Pass through triangle t, then cross the exit edge.
                    out_slot, out_pos = self._across(t, slot, pos)
                    t2, s2 = tri.opposite(t, out_slot)
                    pos2 = self.w[tri.triangles[t][out_slot]] - 1 - out_pos
                    t, slot, pos = t2, s2, pos2
                out.append(cycle)
        return out

    def _canonical_pos(self, t: int, slot: int, pos: int) -> int:
        e = self.tri.triangles[t][slot]
        if self.tri.sides[e][0] == (t, slot):
            return pos
        return self.w[e] - 1 - pos



def compact_trace(tri: Triangulation, weights) -> list[tuple[str, array]]:
    """`StepTracer`'s cycles as the kept trace form: letters one code
    point each in a `str`, positions in an `array("I")`."""
    return [
        ("".join(chr(x) for x, _ in cycle), array("I", [p for _, p in cycle]))
        for cycle in StepTracer(tri, weights).components()
    ]


def marking_trace(tri: Triangulation, weights) -> list[tuple[str, array]]:
    """The flat tracer loop that `_Tracer.components` replaced: it marks
    every point it passes and ends a walk at the first point marked,
    where the kept loop ends it at its start state and marks points only
    between the components of a multicurve."""
    tracer = _Tracer(tri, weights)
    w = tracer.w
    edge = tri.side_edge
    back, ahead, first = tri.back, tri.ahead, tri.first
    weight = [w[e] for e in edge]
    corner = [n for counts in tracer.corners for n in counts]
    base = [0] * tri.num_edges
    for e in range(1, tri.num_edges):
        base[e] = base[e - 1] + w[e - 1]
    offset = [base[e] for e in edge]
    seen = bytearray(sum(w))
    out = []
    for e in range(tri.num_edges):
        t0, s0 = tri.sides[e][0]
        for p in range(w[e]):
            if seen[base[e] + p]:
                continue
            letters, positions = [], array("I")
            x, pos = 3 * t0 + s0, p
            while True:
                cpos = pos if first[x] else weight[x] - 1 - pos
                key = offset[x] + cpos
                if seen[key]:
                    break
                seen[key] = 1
                letters.append(x)
                positions.append(cpos)
                if pos < corner[x]:
                    x = back[x]
                else:
                    y = ahead[x]
                    pos += weight[y] - weight[x]
                    x = y
            out.append((encode(letters), positions))
    return out


def trace_components(tri: Triangulation, weights) -> list[tuple[int, ...]]:
    """Component words of the multicurve with these normal coordinates."""
    cycles = StepTracer(tri, weights).components()
    return [tuple(x for x, _ in cycle) for cycle in cycles]


def vertex_canonical(tri: Triangulation, word) -> tuple[int, ...]:
    """Shortest canonical dual word of a component under closed isotopy.

    Cyclic reduction is canonical only in the punctured surface; an
    isotopy across the vertex replaces a run parallel to the vertex
    link by the complementary run of the link.  Runs covering at least
    half the link never lengthen the word under this swap, so the
    closure under those moves is finite; the lexicographically smallest
    of its shortest words is the canonical representative.  A swap is
    only an isotopy when no other strand of the curve separates the run
    from the vertex, so swapped words that fail to retrace as normal
    words are discarded.  The empty word comes back exactly for
    null-isotopic inputs (such as the vertex link itself).
    """
    mate = tri.mate
    start = cyclic_reduce(tuple(word), mate)
    if not start:
        return ()
    link = tuple(tri.vertex_link)
    links = (link, reverse_word(link, mate))
    n = len(link)
    min_len = n // 2
    seen = {canonical_cyclic(start, mate)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            m = len(w)
            for cycle in links:
                dbl = cycle + cycle
                for j in range(n):
                    for i in range(m):
                        k = 0
                        while k < m and k < n and w[(i + k) % m] == dbl[j + k]:
                            k += 1
                        if k < min_len:
                            continue
                        anchored = tuple(w[(i + t) % m] for t in range(m))
                        for kk in range(min_len, k + 1):
                            v = dbl[j + kk : j + n]
                            cand = canonical_cyclic(
                                reverse_word(v, mate) + anchored[kk:], mate
                            )
                            if len(cand) > len(w) or cand in seen:
                                continue
                            if cand and [
                                canonical_cyclic(t2, mate)
                                for t2 in trace_components(
                                    tri, word_weights(tri, [cand])
                                )
                            ] != [cand]:
                                continue
                            seen.add(cand)
                            nxt.append(cand)
        frontier = nxt
        if len(seen) > 20000:
            raise RuntimeError("vertex reduction closure exploded")
    best = min(len(w) for w in seen)
    if best == 0:
        return ()
    return min(w for w in seen if len(w) == best)


@lru_cache(maxsize=None)
def _tuple_tables(tri: Triangulation):
    """Tables for words encoded one character per letter.

    `str.translate` tables: each letter to its mate, and per direction
    of the vertex link, each letter to its successor along the link,
    given with that direction's letters doubled as a string.
    """
    mate = tri.mate
    directions = []
    for cycle in (tri.vertex_link, reverse_word(tri.vertex_link, mate)):
        succ = [0] * len(cycle)
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            succ[x] = y
        text = "".join(map(chr, cycle))
        directions.append(("".join(map(chr, succ)), text + text))
    return "".join(map(chr, mate)), tuple(directions)


def _same_tuple_cycle(text: str, word, flip: str) -> bool:
    """Whether `word` is the cyclic word `text` up to rotation and reversal."""
    if len(text) != len(word):
        return False
    t = "".join(map(chr, word))
    r = t[::-1].translate(flip)
    return text in t + t or text in r + r


def tuple_vertex_canonical(tri: Triangulation, word) -> tuple[int, ...]:
    """Shortest canonical dual word of a component under closed isotopy.

    Cyclic reduction is canonical only in the punctured surface; an
    isotopy across the vertex replaces a run parallel to the vertex
    link by the complementary run of the link.  Runs covering at least
    half the link never lengthen the word under this swap, so the
    closure under those moves is finite; the lexicographically smallest
    of its shortest words is the canonical representative.  A swap is
    only an isotopy when no other strand of the curve separates the run
    from the vertex, so swapped words that fail to retrace as normal
    words are discarded.  The empty word comes back exactly for
    null-isotopic inputs (such as the vertex link itself).

    The link holds each of the 3 * num_triangles letters exactly once
    (one per corner), so each direction of it is a successor table on
    the letters: w[i..i+k-1] runs parallel to it exactly when each of
    w[i..i+k-2] is followed by its successor.  Translating the encoded
    word by that table and comparing it with the word rotated by one
    marks those letters in a byte vector, so runs of at least min_len
    letters are the cyclic stretches of min_len - 1 marks there.
    """
    mate = tri.mate
    start = cyclic_reduce(tuple(word), mate)
    if not start:
        return ()
    flip, directions = _tuple_tables(tri)
    n = len(tri.vertex_link)
    min_len = n // 2
    seen = {canonical_reduced(start, mate)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            m = len(w)
            text = "".join(map(chr, w))
            for succ, dbl in directions:
                for i, k in parallel_runs(text, succ, n, min_len):
                    anchored = text[i:] + text[:i]
                    j = dbl.find(text[i])
                    for kk in range(min_len, k + 1):
                        swapped = dbl[j + kk : j + n][::-1].translate(flip) + anchored[kk:]
                        cand = cyclic_reduce(tuple(map(ord, swapped)), mate)
                        if len(cand) > m:
                            continue
                        cand = canonical_reduced(cand, mate)
                        if cand in seen:
                            continue
                        if cand:
                            traced = flat_trace_components(tri, count_weights(tri, [cand]))
                            if len(traced) != 1 or not _same_tuple_cycle(
                                "".join(map(chr, cand)), traced[0], flip
                            ):
                                continue
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
        if len(seen) > MAX_VERTEX_CLOSURE:
            raise RuntimeError(
                f"vertex reduction closure exceeded MAX_VERTEX_CLOSURE = {MAX_VERTEX_CLOSURE}:"
                f" {len(seen)} words reached from an input word of length {len(word)}"
            )
    best = min(len(w) for w in seen)
    if best == 0:
        return ()
    return min(w for w in seen if len(w) == best)


def parallel_runs(text: str, succ: str, n: int, min_len: int):
    """(i, k) for each i starting a run of k >= min_len letters of the
    cyclic word `text` parallel to the link direction `succ`, with k
    capped at the lengths of the word and of the link, n."""
    m = len(text)
    marks = bytes(map(eq, text.translate(succ), text[1:] + text[:1]))
    marks += marks
    stretch = b"\x01" * (min_len - 1)
    i = marks.find(stretch)
    while 0 <= i < m:
        end = marks.find(0, i)
        yield i, min(m, n) if end < 0 else min(m, n, end - i + 1)
        i = marks.find(stretch, i + 1)


def string_vertex_canonical(tri: Triangulation, encoded: str) -> str:
    """`vertex_canonical` of an encoded word, such as a traced cycle,
    as encoded text."""
    tables = translate_tables(tri)
    flip = tables.flip
    start = kernel.cyclic_reduce(encoded, flip)
    if not start:
        return ""
    n = len(tri.vertex_link)
    min_len = n // 2
    seen = {kernel.canonical_cyclic(start, flip)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for text in frontier:
            for succ, dbl in tables.directions:
                for i, k in parallel_runs(text, succ, n, min_len):
                    anchored = text[i:] + text[:i]
                    j = dbl.find(text[i])
                    for kk in range(min_len, k + 1):
                        swapped = dbl[j + kk : j + n][::-1].translate(flip) + anchored[kk:]
                        cand = kernel.canonical_cyclic(swapped, flip)
                        if cand in seen:
                            continue
                        if cand:
                            traced = flat_trace_components(tri, _text_weights(tables, [cand]))
                            if len(traced) != 1 or not _same_cycle(cand, encode(traced[0]), flip):
                                continue
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
        if len(seen) > MAX_VERTEX_CLOSURE:
            raise RuntimeError(
                f"vertex reduction closure exceeded MAX_VERTEX_CLOSURE = {MAX_VERTEX_CLOSURE}:"
                f" {len(seen)} words reached from an input word of length {len(encoded)}"
            )
    return min(seen, key=lambda w: (len(w), w))


def count_weights(tri: Triangulation, words) -> tuple[int, ...]:
    w = [0] * tri.num_edges
    for word in words:
        for x in word:
            w[tri.side_edge[x]] += 1
    return tuple(w)


def parent_words(tri: Triangulation, words) -> tuple[tuple[int, ...], ...]:
    """The component words `CurveClass.from_words` stored before the change.

    Round trip as in the kept code, then every reduced word canonicalised
    a second time, sorted, and the vertex link rejected.
    """
    reduced = []
    for word in words:
        w = vertex_canonical(tri, word)
        if not w:
            raise ValueError("a component reduces to the trivial loop")
        validate_word(tri, w)
        reduced.append(w)
    traced = sorted(
        canonical_cyclic(w, tri.mate)
        for w in trace_components(tri, word_weights(tri, reduced))
    )
    if traced != sorted(reduced):
        raise ValueError(
            "words are not an embedded multicurve (round trip failed)"
        )
    link = canonical_cyclic(tri.vertex_link, tri.mate)
    canon = tuple(sorted(canonical_cyclic(w, tri.mate) for w in reduced))
    for w in canon:
        if w == link:
            raise ValueError("vertex-linking component is inessential")
    return canon


def rescanning_cyclic_reduce(word, mate):
    """Remove backtracks (x followed by mate[x]) cyclically."""
    w = list(word)
    changed = True
    while changed and w:
        changed = False
        out = []
        i = 0
        n = len(w)
        while i < n:
            if i + 1 < n and w[i + 1] == mate[w[i]]:
                i += 2
                changed = True
            else:
                out.append(w[i])
                i += 1
        i, j = 0, len(out) - 1
        while j > i and out[i] == mate[out[j]]:
            i, j = i + 1, j - 1
        if i:
            out, changed = out[i : j + 1], True
        w = out
    return tuple(w)


def min_rotation(word):
    """Lexicographically minimal rotation (Booth's algorithm)."""
    w = tuple(word)
    n = len(w)
    if n <= 1:
        return w
    s = w + w
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return s[k : k + n]
