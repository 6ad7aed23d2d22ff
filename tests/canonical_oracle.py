"""The letter-by-offset canonicaliser and the step tracer, kept as oracles.

`vertex_canonical` here is the closure search that
`cbgraph.curves.vertex_canonical` replaced: it compares every word
position with every offset into the vertex link, where the kept code
looks up the one offset a letter can have.  `StepTracer` is the normal
arc tracer that calls a method per step, where the kept one reads
per-letter tables.  `parent_words` is the class-building rule that
canonicalised every traced word a second time.  Tests require the kept
code to give the same words, cycles and classes.  `rescanning_cyclic_reduce`
is the word reduction that repeated whole passes until nothing
cancelled; the kept one must return a rotation of its result.
"""

from __future__ import annotations

from cbgraph.curves import corner_counts, validate_word, word_weights
from cbgraph.kernel import canonical_cyclic, cyclic_reduce, reverse_word
from cbgraph.surface import Triangulation


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
        w_here = self.w[self.tri.edge_of(t, slot)]
        if pos < n[slot]:
            # Arc at the slot's start corner, joining side slot-1.
            out = (slot - 1) % 3
            a = pos + 1
            return out, self.w[self.tri.edge_of(t, out)] - a
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
                    ce = tri.edge_of(t, slot)
                    cpos = self._canonical_pos(t, slot, pos)
                    if (ce, cpos) in seen:
                        break
                    seen.add((ce, cpos))
                    cycle.append((3 * t + slot, cpos))
                    # Pass through triangle t, then cross the exit edge.
                    out_slot, out_pos = self._across(t, slot, pos)
                    t2, s2 = tri.opposite(t, out_slot)
                    pos2 = self.w[tri.edge_of(t, out_slot)] - 1 - out_pos
                    t, slot, pos = t2, s2, pos2
                out.append(cycle)
        return out

    def _canonical_pos(self, t: int, slot: int, pos: int) -> int:
        e = self.tri.edge_of(t, slot)
        if self.tri.sides[e][0] == (t, slot):
            return pos
        return self.w[e] - 1 - pos



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
