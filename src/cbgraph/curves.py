"""Isotopy classes of simple closed multicurves on a triangulated surface.

A curve is stored as a cyclic word of directed-crossing letters: letter
3t + s means "cross the edge at slot s of triangle t, entering t".  Two
triangles of the fan triangulation can share two edges, so letters (not
bare edge ids) are needed to pin down the path.  With the vertex treated
as a marked point the dual graph lifts to a trivalent tree, so cyclically
reduced words are canonical up to rotation and reversal (reversal maps
each letter to its mate) for isotopy in the punctured surface.  Isotopy
in the closed surface additionally allows pushes across the vertex,
which swap a run parallel to the vertex link for the complementary run;
`vertex_canonical` exhausts those, so word equality is isotopy.  Two
swaps inside one maximal run cancel to the same word at the run's left
and right junctions, so the closure swaps each maximal run once, capped
at the link's length.  A swap is an isotopy when every turn of the run
is innermost at its corner, which the trace of the word being swapped
shows; a word that does not trace to one cycle equal to itself falls
back to retracing each swap instead.

`vertex_canonical` runs on words encoded as `str`, one code point per
letter (`kernel.encode`); letters are below 3 * num_triangles, far
inside the code point range 0..0x10FFFF.  Reversal, reduction, the
least rotation and the letter counts per edge are string operations on
`str.translate` tables, and the answer is decoded once.  A run parallel
to the vertex link turns the same way at every corner, so the link's
two successor tables are the turn tables `ahead` and `back`, and the
runs are found by one `str.translate` of the encoded word per direction.
`translate_tables` builds them once per triangulation for every layer
that reads words.

The letter counts per edge are exactly the normal coordinates, and
tracing those coordinates through the triangles recovers the components,
which doubles as an embeddedness check.  The arcs at each corner of a
triangle are counted by `corner_counts`, which the tracer and `cut`
both read.  The traced cycles are matched to the canonical words by
substring tests on the encoded words, so each word is canonicalised
once.  A curve built from normal coordinates (`from_weights`, and so
`from_json`) is traced once to find its words, which are canonicalised
and matched to the trace as text; the weight sum, the number of letters
traced, is bounded by `MAX_CURVE_LETTERS` first.  The round trip reuses
that trace unless a push across the vertex changed the weights.  A
trace has one form, each cycle's letters encoded as a `str` and its
positions as an `array("I")`; the class keeps it, each cycle matched to
the canonical text it runs, as `CurveClass.trace`, which `geom` and
`cut` read.

A class stores its words only as that text, `CurveClass.texts`: below
256 letters (genus up to 21) a `str` holds one byte per letter, where a
tuple of ints holds eight.  `words` and `word` decode it when read.
Every constructor ends in `CurveClass.from_texts`; `from_words` checks
and encodes its int words and calls it.

Words read off a trace are valid reduced dual paths by construction, so
they are not checked again: from the crossing 3t + s the tracer follows
a normal arc through t out through another side of t, so the next
letter is in range, its mate lies in t and it is not the mate of 3t + s.
`vertex_canonical` keeps them valid, since it returns a rotation or
reversal of its reduced input or of a swap.  A swap is a valid path:
the link's letters chain, the run and its complement leave the same
triangles at both ends, and cancelling a backtrack keeps a path valid.
Words from callers of `from_texts` and `from_words`, such as `twist`,
`band_sum` and recipe `word` specs, are checked: their letters before
they are canonicalised, and their canonical words by the triangle
condition of `validate_word`, compared as two translated strings.
"""

from __future__ import annotations

import json
from array import array
from functools import lru_cache
from operator import eq
from typing import NamedTuple

from cbgraph import MEMO_ENTRIES
from cbgraph.kernel import canonical_cyclic, cyclic_reduce, decode, encode, reverse_word
from cbgraph.surface import Triangulation, standard_triangulation

MAX_VERTEX_CLOSURE = 20000  # words `vertex_canonical` may reach from one input
MAX_CURVE_LETTERS = 10**7  # letters `from_weights` may trace, as `ops.MAX_TWIST_LETTERS`


def corner_counts(tri: Triangulation, weights) -> list[tuple[int, int, int]]:
    """Arc counts at the corners of each triangle of nonnegative weights.

    Corner k lies between sides k-1 and k and holds half the sum less
    the opposite weight.  The matching conditions (even sum, triangle
    inequalities) are exactly nonnegativity here.
    """
    corners = []
    for a, b, c in tri.triangles:
        x, y, z = weights[a], weights[b], weights[c]
        total = x + y + z
        if total % 2:
            raise ValueError("odd weight sum in a triangle")
        half = total // 2
        if half < x or half < y or half < z:
            raise ValueError("triangle inequality violated by weights")
        corners.append((half - y, half - z, half - x))
    return corners


class _Tracer:
    """Connects the normal arcs given by an edge-weight vector."""

    def __init__(self, tri: Triangulation, weights):
        self.tri = tri
        self.w = w = list(weights)
        if len(w) != tri.num_edges:
            raise ValueError("weight vector has wrong length")
        if any(x < 0 for x in w):
            raise ValueError("negative weight")
        self.corners = corner_counts(tri, w)

    def components(self) -> list[tuple[str, array]]:
        """All traced components as (letters, positions) cycles.

        Each step is a directed crossing 3t + s together with the index of
        the crossing point along the edge, counted in the frame of the
        edge's first listed incidence.  An arc at the start corner of slot
        s leaves through side s-1 at the same index; any other leaves
        through side s+1, its index shifted by the change in weight.
        A walk stops at its start state, since a normal curve passes each
        point once; points are marked seen only while letters are left.
        """
        tri = self.tri
        w = self.w
        edge = tri.side_edge
        back, ahead, first = tri.back, tri.ahead, tri.first
        # Per letter: weight, arc count at the start corner, change of
        # weight ahead, last index if the slot's frame is reversed (else
        # -1), and the edge's first point number base[e].
        weight = [w[e] for e in edge]
        corner = [n for counts in self.corners for n in counts]
        dwa = [weight[y] - n for y, n in zip(ahead, weight)]
        top = [-1 if f else n - 1 for f, n in zip(first, weight)]
        base = [0] * tri.num_edges
        for e in range(1, tri.num_edges):
            base[e] = base[e - 1] + w[e - 1]
        offset = [base[e] for e in edge]
        total, traced = sum(w), 0
        seen = bytearray(total)
        out = []
        for e in range(tri.num_edges):
            t0, s0 = tri.sides[e][0]
            x0 = 3 * t0 + s0
            for p in range(w[e]):
                if seen[base[e] + p]:
                    continue
                letters, positions = [], array("I")
                x, pos = x0, p
                while True:
                    letters.append(x)
                    positions.append(pos if top[x] < 0 else top[x] - pos)
                    if pos < corner[x]:
                        x = back[x]
                    else:
                        pos += dwa[x]
                        x = ahead[x]
                    if pos == p and x == x0:
                        break
                out.append((encode(letters), positions))
                traced += len(letters)
                if traced == total:
                    return out
                for x, cpos in zip(letters, positions):
                    seen[offset[x] + cpos] = 1
        return out


def trace_components(tri: Triangulation, weights) -> list[tuple[int, ...]]:
    """Component words of the multicurve with these normal coordinates."""
    return [decode(text) for text, _ in _Tracer(tri, weights).components()]


def _check_letters(tri: Triangulation, word) -> None:
    top = 3 * tri.num_triangles
    if word and not (0 <= min(word) and max(word) < top):
        bad = next(x for x in word if not 0 <= x < top)
        raise ValueError(f"unknown letter {bad}")


def validate_word(tri: Triangulation, word) -> None:
    """Check that a cyclic letter sequence is a valid reduced dual path."""
    if not word:
        raise ValueError("empty word")
    _check_letters(tri, word)
    mate = tri.mate
    for a, b in zip(word, word[1:] + word[:1]):
        # After entering triangle t via letter a, the next crossing must
        # exit t through a different slot: b's mate sits in t.
        mb = mate[b]
        if mb // 3 != a // 3:
            raise ValueError("consecutive letters do not share a triangle")
        if mb == a:
            raise ValueError("word has a backtrack")


def _validate_reduced(tri: Triangulation, tables: _Tables, text: str) -> None:
    """`validate_word` of a nonempty cyclically reduced encoded word, at
    string speed.

    No letter of a cyclically reduced word is followed by its mate, so
    it has no backtrack and only the triangle condition (`chains`) can
    fail.  When it does, `validate_word` runs its letter loop and raises
    its own message.
    """
    if not chains(tables, text):
        validate_word(tri, decode(text))


def chains(tables: _Tables, text: str) -> bool:
    """Whether the mate of each next letter of a cyclic encoded word lies
    in the letter's triangle: one comparison of two translations, the
    triangles of the letters against those of their mates rotated by one."""
    mates = text.translate(tables.mate_triangle)
    return text.translate(tables.triangle) == mates[1:] + mates[:1]


class _Tables(NamedTuple):
    """`str.translate` tables for words encoded one code point per letter."""

    flip: str  # each letter to its mate
    edge: str  # each letter to the edge it crosses
    edges: str  # every edge, in order
    triangle: str  # each letter to its triangle
    mate_triangle: str  # each letter to its mate's triangle
    # Per direction of the vertex link: its successor table, and its letters doubled.
    directions: tuple[tuple[str, str], ...]


@lru_cache(maxsize=None)
def translate_tables(tri: Triangulation) -> _Tables:
    """The tables of `tri`, built once per triangulation."""
    flip, link = encode(tri.mate), encode(tri.vertex_link)
    directions = (
        (encode(tri.ahead), link * 2),
        (encode(tri.back), reverse_word(link, flip) * 2),
    )
    return _Tables(
        flip,
        encode(tri.side_edge),
        encode(range(tri.num_edges)),
        encode(x // 3 for x in range(3 * tri.num_triangles)),
        encode(y // 3 for y in tri.mate),
        directions,
    )


def _same_cycle(text: str, other: str, flip: str) -> bool:
    """Whether two encoded cyclic words agree up to rotation and reversal."""
    if len(text) != len(other):
        return False
    r = reverse_word(other, flip)
    return text in other + other or text in r + r


def _maximal_runs(text: str, succ: str, n: int, min_len: int) -> list[tuple[int, int]]:
    """(i, k) for each maximal run w[i..i+k-1] of at least min_len
    letters of the cyclic word `text` parallel to the link direction
    `succ`, with k capped at the link length n; [(0, min(m, n))] for a
    word of m letters that is one run all the way round.

    The runs come in the order in which a scan from the word's start
    meets a stretch of min_len of their letters: by first letter, except
    that a run across the word's end with min_len letters from the start
    comes first.  A word that is no normal curve raises the tracer's
    error for the first swap in that order.
    """
    m = len(text)
    marks = bytes(map(eq, text.translate(succ), text[1:] + text[:1]))
    if m and 0 not in marks:
        return [(0, min(m, n))]
    marks += marks
    # A run starts after a letter not followed by its successor.
    start = b"\x00" + b"\x01" * (min_len - 1)
    runs = []
    i = marks.find(start)
    while 0 <= i < m:
        runs.append(((i + 1) % m, marks.find(0, i + 1) - i))
        i = marks.find(start, i + 1)
    runs.sort(key=lambda run: 0 if sum(run) - min_len >= m else run[0])
    return [(i, min(n, k)) for i, k in runs]


def vertex_canonical(tri: Triangulation, word) -> tuple[int, ...]:
    """Shortest canonical dual word of a component under closed isotopy.

    Cyclic reduction is canonical only in the punctured surface; an
    isotopy across the vertex replaces a run parallel to the vertex
    link by the complementary run of the link.  Runs covering at least
    half the link never lengthen the word under this swap: the link has
    n = 12g - 6 letters, an even number, so a run of kk >= n/2 letters
    swaps a word of m letters for one of m + n - 2kk <= m letters, and
    reduction only shortens it.  So the closure under those moves is
    finite without a length check; the lexicographically smallest of its
    shortest words is the canonical representative.  A swap is only an
    isotopy when no other strand of the curve separates the run from the
    vertex.  The empty word comes back exactly for null-isotopic inputs
    (such as the vertex link itself).

    The closure runs on encoded words and keeps them as strings; the
    answer is decoded once.  The link holds each of the 3 * num_triangles
    letters exactly once (one per corner), so each direction of it is a
    successor table on the letters: w[i..i+k-1] runs parallel to it
    exactly when each of w[i..i+k-2] is followed by its successor.
    Translating the encoded word by that table and comparing it with the
    word rotated by one marks those letters in a byte vector, so maximal
    runs of at least min_len letters start after the 0 of each cyclic
    stretch of a 0 and min_len - 1 marks there.

    One swap per maximal run reaches every word that a swap of a part of
    it does.  With the run l_j .. l_{j+K-1} at w[i..i+K-1], swapping the
    kk letters from i leaves the reversed complement, ending in the mate
    of l_{j+kk}, followed by w[i+kk]:

    - at the right junction, while the run continues, w[i+kk] is
      l_{j+kk} and cancels that mate, which leaves the swap of kk + 1
      letters from i;
    - at the left junction the swap of kk - 1 letters from i + 1 starts
      with the mate of l_{j+n} = l_j, which cancels w[i] and leaves the
      swap of kk letters from i.

    So every swap inside the run reduces to the swap of the whole run,
    capped at n (a run longer than n is no normal curve, and removing n
    of its letters from any start gives one word).

    Whether a swap is an isotopy is decided before it is built, from
    the trace of the word being swapped, which gives each crossing's
    position along its edge.  The swap is one when every turn of the run
    is innermost at its corner, so that no strand lies between the run
    and the vertex: a turn back (at the start corner of its letter's
    slot) at position 0 from that corner, a turn ahead at position
    weight - 1.  Each closure word that has a run is traced once, the
    start word not at all when its trace is given, and the trace of the
    answer is returned for the round trip to reuse.  Outside the
    fallback below, a swap that is not an isotopy is never built.

    A word that does not trace to one cycle equal to itself, such as a
    non-simple input, has no such positions; its swaps are built and
    retraced, and kept when they trace to one cycle equal to
    themselves.  Whether a swap traces so depends only on the swapped
    word, so a refused word is not retraced again.  A word that is one
    run all the way round needs no rule of its own: it is the vertex
    link, whose swap is the empty word and needs no check, or a power of
    the link, which traces to parallel copies and so is retraced.
    """
    return decode(_vertex_canonical(tri, encode(word))[0])


def _vertex_canonical(tri: Triangulation, encoded: str, trace=None):
    """`vertex_canonical` of an encoded word, such as a traced cycle, as
    encoded text, and the trace of the answer's weights as (weights,
    cycles) if the closure traced it, else None.  `trace`, if given, is
    that pair for `encoded`."""
    tables = translate_tables(tri)
    flip = tables.flip
    first = canonical_cyclic(encoded, flip)
    if not first:
        return "", None
    n = len(tri.vertex_link)
    min_len = n // 2
    seen, refused = {first}, set()
    # The least traced word so far, and its trace: that of `encoded`
    # when reduction left its length, and so its weights, alone.
    given = trace is not None and len(first) == len(encoded)
    least, kept = (first, trace) if given else (None, None)
    frontier = [first]
    while frontier:
        nxt = []
        for text in frontier:
            runs = [
                (i, k, ahead, dbl)
                for ahead, (succ, dbl) in zip((True, False), tables.directions)
                for i, k in _maximal_runs(text, succ, n, min_len)
            ]
            if not runs:
                continue
            if text != least:
                own = _trace(tri, tables, text)
                if least is None or (len(text), text) < (len(least), least):
                    least, kept = text, own
            else:
                own = kept
            weights, cycles = own
            pos = _aligned(flip, text, cycles)
            for i, k, ahead, dbl in runs:
                if pos is not None and not _innermost(tri, text, weights, pos, i, k, ahead):
                    continue
                cand = _swap(text, i, k, dbl, flip)
                if cand in seen or cand in refused:
                    continue
                if cand and pos is None and not _traces_to_itself(tri, tables, cand):
                    refused.add(cand)
                    continue
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
        if len(seen) > MAX_VERTEX_CLOSURE:
            raise RuntimeError(
                f"vertex reduction closure exceeded MAX_VERTEX_CLOSURE = {MAX_VERTEX_CLOSURE}:"
                f" {len(seen)} words reached from an input word of length {len(encoded)}"
            )
    best = min(seen, key=lambda w: (len(w), w))
    return best, kept if best == least and kept[1] is not None else None


def _swap(text: str, i: int, k: int, dbl: str, flip: str) -> str:
    """The canonical word left by swapping the run text[i..i+k-1] for
    the rest of the link, whose direction's letters doubled are `dbl`."""
    j = dbl.find(text[i])
    n = len(dbl) // 2
    swapped = reverse_word(dbl[j + k : j + n], flip) + (text[i:] + text[:i])[k:]
    return canonical_cyclic(swapped, flip)


def _trace(tri: Triangulation, tables: _Tables, text: str):
    """(weights, cycles) of an encoded word: its normal coordinates and
    their trace, which is None when the tracer refuses the weights."""
    weights = _text_weights(tables, (text,))
    try:
        return weights, _Tracer(tri, weights).components()
    except ValueError:  # no normal curve: the fallback retraces its swaps, and they raise
        return weights, None


def _aligned(flip: str, text: str, cycles):
    """The positions of `text`'s letters in `cycles`, or None unless
    those are one cycle equal to `text` up to rotation and reversal.

    The reversal crosses the same points, and a position counts in the
    frame of the edge, so reversed positions are the traced ones in
    reverse order.
    """
    if not cycles or len(cycles) != 1 or len(cycles[0][0]) != len(text):
        return None
    (t, pos), = cycles
    for t, pos in ((t, pos), (reverse_word(t, flip), pos[::-1])):
        k = (t + t).find(text)
        if k >= 0:
            return pos[k:] + pos[:k]
    return None


def _innermost(tri: Triangulation, text: str, weights, pos, i: int, k: int, ahead: bool) -> bool:
    """Whether each turn of the run text[i..i+k-1], turning ahead or
    back, is innermost at its corner; `pos` are the positions of
    `text`'s letters in the trace of its `weights`.

    In its own slot's frame a turn back must sit at position 0 and a
    turn ahead at weight - 1; the trace counts in the frame of the
    edge's first incidence, which reverses the other frame.
    """
    m = len(text)
    edge, first = tri.side_edge, tri.first
    for t in range(i, i + k - 1):
        x = ord(text[t % m])
        if pos[t % m] != (weights[edge[x]] - 1 if first[x] == ahead else 0):
            return False
    return True


def _traces_to_itself(tri: Triangulation, tables: _Tables, text: str) -> bool:
    """Whether the weights of `text` trace to one cycle equal to it."""
    cycles = _Tracer(tri, _text_weights(tables, (text,))).components()
    return len(cycles) == 1 and _same_cycle(text, cycles[0][0], tables.flip)


def _text_weights(tables: _Tables, texts) -> tuple[int, ...]:
    """Normal coordinates of encoded words: the count of each edge."""
    crossed = "".join(texts).translate(tables.edge)
    return tuple(map(crossed.count, tables.edges))


def word_weights(tri: Triangulation, words) -> tuple[int, ...]:
    return _text_weights(translate_tables(tri), map(encode, words))


def read_file(path) -> str:
    """The UTF-8 text of the file at `path`.

    A path that cannot be opened or read (missing, a directory, no
    permission) raises ValueError naming it, as bytes that are not UTF-8 do.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return data.decode()


def json_record(data, what: str, *keys) -> dict:
    """A JSON object holding `keys`, parsed first if given as text.

    A non-object record or a missing key raises ValueError naming it.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"{what} record is a JSON {type(data).__name__}, not an object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} record lacks the key {key!r}")
    return data


def json_field(record, what, key, kind, default):
    """record[key], or default when it is absent or null; a ValueError
    unless the value is of type `kind` (int, list or dict)."""
    value = record.get(key)
    if value is None:
        value = default
    if type(value) is not kind:
        article = "an" if kind is int else "a"
        raise ValueError(f"{what} {key} must be {article} {kind.__name__}, not {value!r}")
    return value


class CurveClass:
    """An essential simple closed multicurve up to isotopy.

    `texts` holds the canonical word of each component encoded as a
    `str` (`kernel.encode`), in sorted order; `words` and `word` are
    its decoded view.  Code-point order on the texts is the
    lexicographic order of the words, so sorting, equality, hashing
    and order read the texts.  `trace` is the normal trace of `weights`
    in traced order, per cycle the letters and positions of
    `_Tracer.components` and the text of `texts` it runs (the same
    `str`).  Equality, hashing, order and JSON ignore it.
    """

    __slots__ = ("tri", "texts", "_weights", "trace")

    def __init__(self, tri: Triangulation, texts: tuple[str, ...], weights, trace):
        # Internal: use the constructors below, which validate; `weights`
        # are the normal coordinates of `texts`.
        self.tri = tri
        self.texts = texts
        self._weights = weights
        self.trace = trace

    @classmethod
    def from_weights(cls, tri: Triangulation, weights) -> "CurveClass":
        """The multicurve with these normal coordinates, memoised per process.

        The weights must be ints: a float or bool equal to one would
        otherwise read the memo entry of that int.  Their sum, the
        letters traced, is checked against `MAX_CURVE_LETTERS` first.
        """
        weights = tuple(weights)
        if not all(type(x) is int for x in weights):
            raise ValueError(f"weights must be ints, not {list(weights)!r}")
        if sum(weights) > MAX_CURVE_LETTERS:
            raise RuntimeError(
                f"curve exceeded MAX_CURVE_LETTERS = {MAX_CURVE_LETTERS}:"
                f" its weights sum to {sum(weights)} letters"
            )
        return _from_weights(tri, weights)

    @classmethod
    def from_word(cls, tri: Triangulation, word) -> "CurveClass":
        return cls.from_words(tri, [word])

    @classmethod
    def from_words(cls, tri: Triangulation, words) -> "CurveClass":
        """Build from component dual words (`from_texts` of their encodings)."""
        return cls.from_texts(tri, (_encoded(tri, w) for w in words))

    @classmethod
    def from_texts(cls, tri: Triangulation, texts) -> "CurveClass":
        """Build from component dual words encoded as `str`, verifying
        embeddedness.

        The words are reduced, then the normal multicurve with the summed
        coordinates is traced; it must reproduce the words exactly, each
        traced cycle running one reduced word up to rotation and
        reversal.  That round trip fails precisely when a word is
        non-simple or two components cannot be made disjoint.  A
        component isotopic to the vertex link needs no check of its own:
        its closure in `vertex_canonical` holds the full-link swap, the
        empty word, so it is rejected as the trivial loop.  Each
        canonical word is checked as `validate_word` would
        (`_validate_reduced`).
        """
        top = 3 * tri.num_triangles
        tables = translate_tables(tri)
        reduced = []
        for text in texts:
            if text and ord(max(text)) >= top:
                bad = next(x for x in map(ord, text) if x >= top)
                raise ValueError(f"unknown letter {bad}")
            try:
                canon, trace = _vertex_canonical(tri, text)
            except ValueError:
                # The closure retraces its swaps, so a word that is no
                # dual path can fail there first: name its own fault.
                _validate_reduced(tri, tables, cyclic_reduce(text, tables.flip))
                raise
            _validate_reduced(tri, tables, _nontrivial(canon))
            reduced.append(canon)
        return _matched(tri, reduced, *(trace if len(reduced) == 1 and trace else ()))

    @property
    def weights(self) -> tuple[int, ...]:
        return self._weights

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(decode, self.texts))

    @property
    def is_connected(self) -> bool:
        return len(self.texts) == 1

    @property
    def word(self) -> tuple[int, ...]:
        if len(self.texts) != 1:
            raise ValueError("multicurve has no single word")
        return decode(self.texts[0])

    @property
    def is_separating(self) -> bool:
        """Whether the (connected) curve disconnects the surface.

        A curve on a one-vertex triangulation is null-homologous mod 2
        iff it crosses every edge an even number of times.
        """
        if len(self.texts) != 1:
            raise ValueError("is_separating needs a connected curve")
        return all(w % 2 == 0 for w in self._weights)

    def components(self) -> list["CurveClass"]:
        """The components in traced order, each with its own trace: the
        same letters from the same least point, its positions ranked
        among its own points on each edge."""
        tables = translate_tables(self.tri)
        edge = tables.edge
        out = []
        for text, pos, canon in self.trace:
            points = list(zip(text.translate(edge), pos))
            rank, start = {}, {}
            for i, point in enumerate(sorted(points)):
                rank[point] = i - start.setdefault(point[0], i)
            own = array("I", map(rank.__getitem__, points))
            weights = _text_weights(tables, (canon,))
            out.append(CurveClass(self.tri, (canon,), weights, ((text, own, canon),)))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CurveClass)
            and self.tri == other.tri
            and self.texts == other.texts
        )

    def __hash__(self) -> int:
        return hash((self.tri.checksum, self.texts))

    def __lt__(self, other: "CurveClass") -> bool:
        return (self._weights, self.texts) < (other._weights, other.texts)

    def __repr__(self) -> str:
        return f"CurveClass(g={self.tri.genus}, words={list(self.words)})"

    def to_json(self) -> dict:
        return {
            "genus": self.tri.genus,
            "weights": list(self._weights),
            "checksum": self.tri.checksum,
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "CurveClass":
        data = json_record(data, "curve", "genus", "weights")
        genus, weights = json_field(data, "curve", "genus", int, None), data["weights"]
        # Before the triangulation, which takes time and memory linear
        # in the genus, so a huge genus with a short vector fails fast.
        if genus >= 2 and isinstance(weights, (list, tuple)) and len(weights) != 6 * genus - 3:
            raise ValueError("weight vector has wrong length")
        tri = standard_triangulation(genus)
        if "checksum" in data and data["checksum"] != tri.checksum:
            raise ValueError("curve was saved against a different triangulation")
        if not isinstance(weights, (list, tuple)):
            raise ValueError(f"curve weights must be a list, not {weights!r}")
        return cls.from_weights(tri, weights)


def _encoded(tri: Triangulation, word) -> str:
    _check_letters(tri, word)
    return encode(word)


def _nontrivial(text: str) -> str:
    """The canonical text of a component, which must not be trivial."""
    if not text:
        raise ValueError("a component reduces to the trivial loop")
    return text


def _matched(tri: Triangulation, texts, weights=None, cycles=None) -> CurveClass:
    """The class of canonical texts; `cycles` are the trace of `weights`.

    Tracing is a function of the weights, so when the texts sum to
    `weights` the round trip matches them against `cycles`; otherwise
    it traces the summed weights.  The class keeps the cycles matched,
    each with its text, as its `trace`.
    """
    tables = translate_tables(tri)
    unmatched = list(texts)
    summed = _text_weights(tables, texts)
    if summed != weights:
        cycles = _Tracer(tri, summed).components()
    trace = []
    for t, pos in cycles:
        hit = next((u for u in unmatched if _same_cycle(u, t, tables.flip)), None)
        if hit is None:
            break
        unmatched.remove(hit)
        trace.append((t, pos, hit))
    if unmatched or len(cycles) != len(texts):
        raise ValueError("words are not an embedded multicurve (round trip failed)")
    return CurveClass(tri, tuple(sorted(texts)), summed, tuple(trace))


@lru_cache(maxsize=MEMO_ENTRIES)
def _from_weights(tri: Triangulation, weights: tuple[int, ...]) -> CurveClass:
    cycles = _Tracer(tri, weights).components()
    if not cycles:
        raise ValueError("zero weights: empty multicurve is not essential")
    given = (weights, cycles) if len(cycles) == 1 else None
    found = [_vertex_canonical(tri, t, given) for t, _ in cycles]
    texts = [_nontrivial(text) for text, _ in found]
    trace = found[0][1] if given and found[0][1] else (weights, cycles)
    return _matched(tri, texts, *trace)
