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
successor on the two strands involved.  All candidates start queued,
keyed by (strand order, original position): a cursor walks them in key
order, and a min-heap holds those queued again behind it, so the next
candidate is the heap's minimum if there is one and the cursor's
otherwise.  A popped candidate that is not a bigon stays unqueued until
a removal changes one of its inputs, which happens only at the new
predecessor p of a spliced strand: the candidate at p itself, and on
p's other strand t the candidates at p and at its predecessor along t.
So every unqueued candidate is a known non-bigon, and the popped
minimum that is a bigon is exactly the one the scan would find first.
The candidates and the strands' links are kept in flat arrays indexed
by a candidate's key.
"""

from __future__ import annotations

import heapq
from array import array

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
        # Half-crossings, one per crossing and strand through it, are
        # numbered strand after strand in drawn order; a half's number is
        # its candidate's heap key.  Per half: its crossing, the other
        # half of that crossing, its strand's number, whether the
        # crossing is positive seen from that strand, its successor and
        # predecessor along the strand, and the arc to the successor.
        cross, arc, firsts = [], [], []
        strand_of, succ, pred = array("I"), array("I"), array("I")
        positive = bytearray()
        for m, s in enumerate(drawing.strands):
            seq = drawing.strand_sequence(s)
            n = len(seq)
            base = len(cross)
            firsts.append(base)
            if not n:
                continue
            cross += seq
            arc += [drawing.arc_letters(s, seq[i - 1], seq[i]) for i in range(1, n)]
            arc.append(drawing.arc_letters(s, seq[-1], seq[0]))
            strand_of += array("I", [m]) * n
            succ += array("I", range(base + 1, base + n))
            succ.append(base)
            pred.append(base + n - 1)
            pred += array("I", range(base, base + n - 1))
            positive += bytes([(x.sign if x.s1 is s else -x.sign) > 0 for x in seq])
        firsts.append(len(cross))
        other = array("I", bytes(4 * len(cross)))
        seen = {}
        for h, x in enumerate(cross):
            o = seen.pop(x, None)
            if o is None:
                seen[x] = h
            else:
                other[h], other[o] = o, h
        del seen

        def bigon_at(h):
            # The other strand's (first, second) halves if the crossing
            # of h and its successor along h's strand bound a bigon.
            k = succ[h]
            if k == h:
                return None
            oh, ok = other[h], other[k]
            if strand_of[oh] != strand_of[ok] or positive[h] == positive[k]:
                # Bigon corners involve the same strands with opposite
                # orientations.
                return None
            alpha = arc[h]
            if succ[oh] == ok and self._loop_is_trivial(alpha, True, arc[oh]):
                return oh, ok
            if succ[ok] == oh and self._loop_is_trivial(alpha, False, arc[ok]):
                return ok, oh
            return None

        def splice(h, k):
            # Drop consecutive halves h, k of a strand and merge the
            # three arcs around them; returns the new predecessor, if any.
            p, q = pred[h], succ[k]
            ah, ak = arc[h], arc[k]
            arc[h] = arc[k] = None
            if p == k:
                return None
            succ[p], pred[q] = q, p
            arc[p] = free_reduce(arc[p] + ah + ak, mate)
            return p

        # The heap holds the halves popped and queued again, all below
        # `scan`; every half from `scan` on is still queued.
        heap, queued, scan = [], bytearray(len(cross)), 0
        while heap or scan < len(cross):
            if heap:
                h = heapq.heappop(heap)
                queued[h] = 0
            else:
                h, scan = scan, scan + 1
            if not cross[h].alive:
                continue
            found = bigon_at(h)
            if found is None:
                continue
            k = succ[h]
            cross[h].alive = cross[k].alive = False
            for p in (splice(h, k), splice(*found)):
                if p is None:
                    continue
                o = other[p]
                for g in (p, o, pred[o]):
                    if g < scan and not queued[g]:
                        queued[g] = 1
                        heapq.heappush(heap, g)

        for m, s in enumerate(drawing.strands):
            kept = [h for h in range(firsts[m], firsts[m + 1]) if cross[h].alive]
            seq = [cross[h] for h in kept]
            self.seqs[s] = seq
            self.arcs[s] = [arc[h] for h in kept]
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
