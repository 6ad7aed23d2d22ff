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
`vertex_canonical` exhausts those, so word equality is isotopy.  Each
letter occurs once in the vertex link, so each direction of the link is
a successor table on the letters, and the runs parallel to it are found
by one `str.translate` of the encoded word per direction.
The letter counts per edge are exactly the normal coordinates, and
tracing those coordinates through the triangles recovers the components,
which doubles as an embeddedness check.  The traced cycles are matched
to the canonical words by substring tests on the encoded words, so each
word is canonicalised once.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import eq

from cbgraph import MEMO_ENTRIES
from cbgraph.kernel import canonical_reduced, cyclic_reduce, reverse_word
from cbgraph.surface import Triangulation, standard_triangulation

MAX_VERTEX_CLOSURE = 20000  # words `vertex_canonical` may reach from one input


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


@lru_cache(maxsize=None)
def _arc_tables(tri: Triangulation):
    """Per letter 3t + s: the letters leaving t through sides s-1 and
    s+1, and whether (t, s) is the first listed incidence of its edge."""
    mate = tri.mate
    letters = range(len(mate))
    back = tuple(mate[x - x % 3 + (x - 1) % 3] for x in letters)
    ahead = tuple(mate[x - x % 3 + (x + 1) % 3] for x in letters)
    first = tuple(tri.sides[tri.side_edge[x]][0] == divmod(x, 3) for x in letters)
    return back, ahead, first


class _Tracer:
    """Connects the normal arcs given by an edge-weight vector."""

    def __init__(self, tri: Triangulation, weights):
        self.tri = tri
        self.w = list(weights)
        if len(self.w) != tri.num_edges:
            raise ValueError("weight vector has wrong length")
        if any(x < 0 for x in self.w):
            raise ValueError("negative weight")
        self.corners = [
            corner_counts(self.w[a], self.w[b], self.w[c]) for a, b, c in tri.triangles
        ]

    def components(self) -> list[list[tuple[int, int]]]:
        """All traced components as cycles of (letter, position) crossings.

        Each step is a directed crossing 3t + s together with the index of
        the crossing point along the edge, counted in the frame of the
        edge's first listed incidence.  An arc at the start corner of slot
        s leaves through side s-1 at the same index; any other leaves
        through side s+1, its index shifted by the change in weight.
        """
        tri = self.tri
        w = self.w
        edge = tri.side_edge
        back, ahead, first = _arc_tables(tri)
        # Per letter: weight, arc count at the start corner, and the
        # edge's first point number base[e].
        weight = [w[e] for e in edge]
        corner = [n for counts in self.corners for n in counts]
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
                cycle = []
                x, pos = 3 * t0 + s0, p
                while True:
                    cpos = pos if first[x] else weight[x] - 1 - pos
                    key = offset[x] + cpos
                    if seen[key]:
                        break
                    seen[key] = 1
                    cycle.append((x, cpos))
                    if pos < corner[x]:
                        x = back[x]
                    else:
                        y = ahead[x]
                        pos += weight[y] - weight[x]
                        x = y
                out.append(cycle)
        return out


def trace_components(tri: Triangulation, weights) -> list[tuple[int, ...]]:
    """Component words of the multicurve with these normal coordinates."""
    cycles = _Tracer(tri, weights).components()
    return [tuple(x for x, _ in cycle) for cycle in cycles]


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


@lru_cache(maxsize=None)
def _translate_tables(tri: Triangulation):
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


def _same_cycle(text: str, word, flip: str) -> bool:
    """Whether `word` is the cyclic word `text` up to rotation and reversal."""
    if len(text) != len(word):
        return False
    t = "".join(map(chr, word))
    r = t[::-1].translate(flip)
    return text in t + t or text in r + r


def _parallel_runs(text: str, succ: str, n: int, min_len: int):
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
    flip, directions = _translate_tables(tri)
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
                for i, k in _parallel_runs(text, succ, n, min_len):
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
                            traced = trace_components(tri, word_weights(tri, [cand]))
                            if len(traced) != 1 or not _same_cycle(
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


def word_weights(tri: Triangulation, words) -> tuple[int, ...]:
    w = [0] * tri.num_edges
    for word in words:
        for x in word:
            w[tri.side_edge[x]] += 1
    return tuple(w)


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


class CurveClass:
    """An essential simple closed multicurve up to isotopy."""

    __slots__ = ("tri", "words", "_weights")

    def __init__(self, tri: Triangulation, words: tuple[tuple[int, ...], ...]):
        # Internal: use the constructors below, which validate.
        self.tri = tri
        self.words = words
        self._weights = word_weights(tri, words)

    @classmethod
    def from_weights(cls, tri: Triangulation, weights) -> "CurveClass":
        """The multicurve with these normal coordinates, memoised per process.

        The weights must be ints: a float or bool equal to one would
        otherwise read the memo entry of that int.
        """
        weights = tuple(weights)
        if not all(type(x) is int for x in weights):
            raise ValueError(f"weights must be ints, not {list(weights)!r}")
        return _from_weights(tri, weights)

    @classmethod
    def from_word(cls, tri: Triangulation, word) -> "CurveClass":
        return cls.from_words(tri, [word])

    @classmethod
    def from_words(cls, tri: Triangulation, words) -> "CurveClass":
        """Build from component dual words, verifying embeddedness.

        The words are reduced, then the normal multicurve with the summed
        coordinates is traced; it must reproduce the words exactly, each
        traced cycle running one reduced word up to rotation and
        reversal.  That round trip fails precisely when a word is
        non-simple or two components cannot be made disjoint.  A
        component isotopic to the vertex link needs no check of its own:
        its closure in `vertex_canonical` holds the full-link swap, the
        empty word, so it is rejected as the trivial loop.
        """
        reduced = []
        for word in words:
            _check_letters(tri, word)
            w = vertex_canonical(tri, word)
            if not w:
                raise ValueError("a component reduces to the trivial loop")
            validate_word(tri, w)
            reduced.append(w)
        flip = _translate_tables(tri)[0]
        traced = trace_components(tri, word_weights(tri, reduced))
        unmatched = ["".join(map(chr, w)) for w in reduced]
        for t in traced:
            hit = next((r for r in unmatched if _same_cycle(r, t, flip)), None)
            if hit is None:
                break
            unmatched.remove(hit)
        if unmatched or len(traced) != len(reduced):
            raise ValueError(
                "words are not an embedded multicurve (round trip failed)"
            )
        return cls(tri, tuple(sorted(reduced)))

    @property
    def weights(self) -> tuple[int, ...]:
        return self._weights

    @property
    def component_count(self) -> int:
        return len(self.words)

    @property
    def is_connected(self) -> bool:
        return len(self.words) == 1

    @property
    def word(self) -> tuple[int, ...]:
        if len(self.words) != 1:
            raise ValueError("multicurve has no single word")
        return self.words[0]

    @property
    def edge_words(self) -> tuple[tuple[int, ...], ...]:
        """Component words as the edges crossed, forgetting directions."""
        return tuple(
            tuple(self.tri.side_edge[x] for x in w) for w in self.words
        )

    @property
    def is_separating(self) -> bool:
        """Whether the (connected) curve disconnects the surface.

        A curve on a one-vertex triangulation is null-homologous mod 2
        iff it crosses every edge an even number of times.
        """
        if len(self.words) != 1:
            raise ValueError("is_separating needs a connected curve")
        return all(w % 2 == 0 for w in self._weights)

    def components(self) -> list["CurveClass"]:
        return [CurveClass(self.tri, (w,)) for w in self.words]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CurveClass)
            and self.tri == other.tri
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.tri.checksum, self.words))

    def __lt__(self, other: "CurveClass") -> bool:
        return (self._weights, self.words) < (other._weights, other.words)

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
        tri = standard_triangulation(data["genus"])
        if "checksum" in data and data["checksum"] != tri.checksum:
            raise ValueError("curve was saved against a different triangulation")
        return cls.from_weights(tri, data["weights"])


@lru_cache(maxsize=MEMO_ENTRIES)
def _from_weights(tri: Triangulation, weights: tuple[int, ...]) -> CurveClass:
    words = trace_components(tri, weights)
    if not words:
        raise ValueError("zero weights: empty multicurve is not essential")
    return CurveClass.from_words(tri, words)
