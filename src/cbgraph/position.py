"""Minimal position for a drawn curve pair via exhaustive bigon removal.

A bigon between two drawn curves has its two corner crossings adjacent
along both strands, and the loop formed by its two arcs is
null-homotopic on the closed surface (decided by Dehn's algorithm).
For a pair of curves an innermost piece of an offending disk is such a
clean bigon, so removing these until none remain leaves the pair in
minimal position.  Removal is pure bookkeeping: the two crossings are
dropped and the neighbouring arcs concatenated, which is valid because
the two arcs of a bigon are homotopic rel endpoints.

The removal order is fixed: the bigon removed next is always the first
one met by a left-to-right scan of the strands in drawing order.

That order is kept without rescanning.  A candidate bigon is a crossing
x on a strand s, with corners x and its successor along s; whether it
is a bigon depends only on the successors and arcs at x and at that
successor on the two strands involved.  All candidates start on a
min-heap keyed by (strand order, original position).  A popped
candidate that is not a bigon stays off the heap until a removal
changes one of its inputs, which happens only at the new predecessor
p of a spliced strand: the candidate at p itself, and on p's other
strand t the candidates at p and at its predecessor along t.  So every
candidate off the heap is a known non-bigon, and the popped minimum
that is a bigon is exactly the one the scan would find first.
"""

from __future__ import annotations

import heapq

from cbgraph import dehn
from cbgraph.geom import Crossing, Drawing, Strand
from cbgraph.kernel import free_reduce, reverse_word


class Reduced:
    """Crossing sequences of a drawing after exhaustive bigon removal.

    `seqs[s]` lists the surviving crossings of strand s in their drawn
    order and `arcs[s][i]` the directed crossings from `seqs[s][i]` to the
    next one; `index(s, x)` is the position of x in `seqs[s]`.  Removed
    crossings have `alive` cleared.  Removal follows the left-to-right
    scan order described in the module docstring.
    """

    def __init__(self, drawing: Drawing):
        self.drawing = drawing
        self.tri = drawing.tri
        self.seqs: dict[Strand, list[Crossing]] = {}
        self.arcs: dict[Strand, list[tuple[int, ...]]] = {}
        self._index: dict[Strand, dict[Crossing, int]] = {}
        self._reduce()

    def _loop_is_trivial(self, alpha, beta_forward, beta) -> bool:
        # alpha runs x -> y on one strand; beta runs x -> y (forward) or
        # y -> x on the other.
        mate = self.tri.mate
        if beta_forward:
            loop = alpha + reverse_word(beta, mate)
        else:
            loop = alpha + beta
        return dehn.is_trivial(self.tri.genus, dehn.path_word(self.tri, loop))

    def _reduce(self):
        drawing = self.drawing
        mate = self.tri.mate
        # Per strand, keyed by crossing: successor, predecessor, arc to
        # the successor, and the candidate's heap key.
        succ, pred, arc, key = {}, {}, {}, {}
        owner = []  # heap key -> (strand, crossing)
        for s in drawing.strands:
            seq = drawing.strand_sequence(s)
            n = len(seq)
            succ[s] = {seq[i - 1]: seq[i] for i in range(n)}
            pred[s] = {seq[i]: seq[i - 1] for i in range(n)}
            arc[s] = {
                seq[i]: drawing.arc_letters(s, seq[i], seq[(i + 1) % n])
                for i in range(n)
            }
            key[s] = {x: len(owner) + i for i, x in enumerate(seq)}
            owner.extend((s, x) for x in seq)
        heap = list(range(len(owner)))
        queued = bytearray(b"\x01") * len(owner)

        def push(s, x):
            k = key[s][x]
            if not queued[k]:
                queued[k] = 1
                heapq.heappush(heap, k)

        def bigon_at(s1, x):
            # The other strand's (first, second) corners if x and its
            # successor along s1 bound a bigon.
            y = succ[s1][x]
            if y is x:
                return None
            _, _, s2, sx = x.strand_data(s1)
            _, _, s2y, sy = y.strand_data(s1)
            if s2y is not s2 or sx == sy:
                # Bigon corners involve the same strands with opposite
                # orientations.
                return None
            alpha = arc[s1][x]
            if succ[s2][x] is y and self._loop_is_trivial(alpha, True, arc[s2][x]):
                return s2, x, y
            if succ[s2][y] is x and self._loop_is_trivial(alpha, False, arc[s2][y]):
                return s2, y, x
            return None

        def splice(s, x, y):
            # Drop consecutive crossings x, y of s and merge the three
            # arcs around them; returns the new predecessor, if any.
            p, q = pred[s].pop(x), succ[s].pop(y)
            del succ[s][x], pred[s][y]
            ax, ay = arc[s].pop(x), arc[s].pop(y)
            if p is y:
                return None
            succ[s][p], pred[s][q] = q, p
            arc[s][p] = free_reduce(arc[s][p] + ax + ay, mate)
            return p

        while heap:
            k = heapq.heappop(heap)
            queued[k] = 0
            s1, x = owner[k]
            if not x.alive:
                continue
            found = bigon_at(s1, x)
            if found is None:
                continue
            s2, first, second = found
            y = succ[s1][x]
            x.alive = False
            y.alive = False
            for s, p in ((s1, splice(s1, x, y)), (s2, splice(s2, first, second))):
                if p is None:
                    continue
                t = p.strand_data(s)[2]
                push(s, p)
                push(t, p)
                push(t, pred[t][p])

        for s in drawing.strands:
            # `key[s]` iterates in drawn order.
            seq = [x for x in key[s] if x.alive]
            self.seqs[s] = seq
            self.arcs[s] = [arc[s][x] for x in seq]
            self._index[s] = {x: i for i, x in enumerate(seq)}

    def index(self, s: Strand, x: Crossing) -> int:
        """Position of surviving crossing x in `seqs[s]`."""
        return self._index[s][x]

    def crossings(self, ci: int, cj: int) -> list[Crossing]:
        """Surviving crossings between curves ci and cj (none when ci == cj).

        Every drawn crossing joins curve 0 and curve 1.
        """
        if ci == cj:
            return []
        return [x for x in self.drawing.crossings if x.alive]

    def count(self, ci: int, cj: int) -> int:
        return len(self.crossings(ci, cj))
