"""Minimal position for a drawn curve pair via exhaustive bigon removal.

A bigon between two drawn curves has its two corner crossings adjacent
along both strands, and the loop formed by its two arcs is
null-homotopic on the closed surface: its arcs are the same path, or
the loop runs once around the vertex (`dehn.is_trivial`).
For a pair of curves an innermost piece of an offending disk is such a
clean bigon, so removing these until none remain leaves the pair in
minimal position.  Removal is pure bookkeeping: the two crossings are
dropped and the neighbouring arcs concatenated, which is valid because
the two arcs of a bigon are homotopic rel endpoints.  The concatenated
arc is the stretch of the strand's letters between the surviving
crossings around it: the strand's letters never change, and they are a
traced cycle, cyclically reduced, so any stretch of them is reduced and
a merge has nothing to cancel.  An arc is therefore read as a slice of
the strand's letters, between the chords of its end crossings, and not
kept.  The letters are the strand's trace text, so arcs, and the words
the walks below build from them, are `str`s.

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

The half arrays are the drawing's (`Drawing`: a half is a crossing
seen from one of its two strands, numbered strand after strand in
drawn order); `Reduced` owns only its links, and only this module
walks them:

- `Reduced.boundary_words` walks the ribbon graph of the union.
  Arriving at a half along its strand, the boundary turns onto the
  crossing's other strand, keeping its direction there at a crossing
  negative from the arriving side and reversing it at a positive one;
  each boundary circle is an orbit of (half, direction) pairs.
- `Reduced.arc_closures` closes each arc of one curve of a pair with
  the two arcs of the other curve between the arc's ends, the two
  resolutions of the corners of N(arc ∪ other curve).
"""

from __future__ import annotations

import heapq
from array import array

from cbgraph import dehn
from cbgraph.curves import translate_tables
from cbgraph.geom import Drawing
from cbgraph.kernel import reverse_word


class Reduced:
    """A drawing after exhaustive bigon removal, as links of its halves.

    The halves and their arrays are the drawing's (`Drawing`); `Reduced`
    owns only `succ` and `pred`, which link the surviving halves of each
    strand cyclically.  They are valid at a half only while its crossing
    is alive, which removal clears.  `arc(h)` is the directed crossings
    from h to `succ[h]`, a slice of the strand's text; `flip` reverses
    arcs.
    """

    def __init__(self, drawing: Drawing):
        self.drawing = drawing
        self.tri = drawing.tri
        self.flip = translate_tables(drawing.tri).flip
        self._reduce()

    def _loop_is_trivial(self, alpha, beta_forward, beta) -> bool:
        # alpha runs x -> y on one strand; beta runs x -> y (forward) or
        # y -> x on the other.  Both are reduced, so the loop is trivial
        # off the vertex exactly when they are the same path.
        if beta_forward:
            if alpha == beta:
                return True
            loop = alpha + reverse_word(beta, self.flip)
        else:
            if beta == reverse_word(alpha, self.flip):
                return True
            loop = alpha + beta
        return dehn.is_trivial(self.tri, loop)

    def _reduce(self):
        d = self.drawing
        crossings, cross, other, positive, strand_of = (
            d.crossings, d.cross, d.other, d.positive, d.strand_of
        )
        # Each strand's halves in drawn order, cyclically; a half's
        # number is its candidate's heap key.
        n = len(cross)
        links = array("I", range(n))
        self.succ = succ = links[1:] + links[:1]
        self.pred = pred = links[-1:] + links[:-1]
        del links
        for lo, hi in zip(d.firsts, d.firsts[1:]):
            if lo < hi:
                succ[hi - 1], pred[lo] = lo, hi - 1
        arc = self.arc

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
            alpha = arc(h)
            if succ[oh] == ok and self._loop_is_trivial(alpha, True, arc(oh)):
                return oh, ok
            if succ[ok] == oh and self._loop_is_trivial(alpha, False, arc(ok)):
                return ok, oh
            return None

        def splice(h, k):
            # Drop consecutive halves h, k of a strand; returns the new
            # predecessor, if any, whose arc now runs on to k's successor.
            p, q = pred[h], succ[k]
            if p == k:
                return None
            succ[p], pred[q] = q, p
            return p

        # The heap holds the halves popped and queued again, all below
        # `scan`; every half from `scan` on is still queued.
        heap, queued, scan = [], bytearray(n), 0
        while heap or scan < n:
            if heap:
                h = heapq.heappop(heap)
                queued[h] = 0
            else:
                h, scan = scan, scan + 1
            if not crossings[cross[h]].alive:
                continue
            found = bigon_at(h)
            if found is None:
                continue
            k = succ[h]
            crossings[cross[h]].alive = crossings[cross[k]].alive = False
            for p in (splice(h, k), splice(*found)):
                if p is None:
                    continue
                o = other[p]
                for g in (p, o, pred[o]):
                    if g < scan and not queued[g]:
                        queued[g] = 1
                        heapq.heappush(heap, g)

    def _letters(self, h: int, k: int) -> str:
        """The strand's letters from half h forward to half k of the
        same strand, once around when k is h.

        Halves are numbered in strand order, so the walk wraps past the
        strand's end exactly when k is not after h.
        """
        d = self.drawing
        letters = d.strands[d.strand_of[h]].letters
        a, b = d.chord[h] + 1, d.chord[k] + 1
        return letters[a:b] if h < k else letters[a:] + letters[:b]

    def arc(self, h: int) -> str:
        """The directed crossings from half h to its successor."""
        return self._letters(h, self.succ[h])

    def count(self) -> int:
        """Surviving crossings; every drawn crossing joins curve 0 and curve 1."""
        return sum(x.alive for x in self.drawing.crossings)

    def connected(self) -> bool:
        """Whether the strands and the surviving crossings form one piece."""
        d = self.drawing
        crossings, cross, other, strand_of, firsts = (
            d.crossings, d.cross, d.other, d.strand_of, d.firsts
        )
        reached, todo = {0}, [0]
        while todo:
            m = todo.pop()
            for h in range(firsts[m], firsts[m + 1]):
                t = strand_of[other[h]]
                if crossings[cross[h]].alive and t not in reached:
                    reached.add(t)
                    todo.append(t)
        return len(reached) == len(firsts) - 1

    def boundary_words(self) -> list[str]:
        """Boundary circle words of the regular neighbourhood of the union.

        First both directions of each strand without a surviving
        crossing, in strand order; then, for each surviving half in
        increasing number and each direction (forward first), the circle
        leaving it, unless an earlier circle passed that way.
        """
        d, flip = self.drawing, self.flip
        crossings, cross, other, positive, firsts = (
            d.crossings, d.cross, d.other, d.positive, d.firsts
        )
        succ, pred, arc = self.succ, self.pred, self.arc
        words = []
        for m, s in enumerate(d.strands):
            if not any(crossings[cross[h]].alive for h in range(firsts[m], firsts[m + 1])):
                words += [s.letters, reverse_word(s.letters, flip)]
        seen = bytearray(2 * len(cross))  # (half, forward) as 2 * half + forward
        for h0, x in enumerate(cross):
            if not crossings[x].alive:
                continue
            for forward in (True, False):
                if seen[2 * h0 + forward]:
                    continue
                h, word = h0, []
                while not seen[2 * h + forward]:
                    seen[2 * h + forward] = 1
                    if forward:
                        word.append(arc(h))
                        k = succ[h]
                    else:
                        k = pred[h]
                        word.append(reverse_word(arc(k), flip))
                    # Arrived at k: turn onto the crossing's other strand.
                    h = other[k]
                    forward ^= positive[k]
                words.append("".join(word))
        return words

    def arc_closures(self, curve: int):
        """Per surviving arc of the curve, in strand order, its two closures.

        The drawing must hold two connected curves.  Yields (beta,
        words, returning) for the arc beta from half h to `succ[h]`:
        `words` closes beta along the other curve, first forward from
        the end of beta to its start (nothing when they meet), then
        backward from the end to the start along the rest (once around
        when they meet).  `returning` is whether beta leaves and comes
        back on the same side of the other curve.  The arcs of the other
        strand between two of its halves are one slice of its letters.
        """
        d = self.drawing
        if [s.curve for s in d.strands] != [0, 1]:
            raise ValueError("arc closures need a pair of connected curves")
        crossings, cross, other, positive = d.crossings, d.cross, d.other, d.positive
        flip, succ, along = self.flip, self.succ, self._letters
        for h in range(d.firsts[curve], d.firsts[curve + 1]):
            if not crossings[cross[h]].alive:
                continue
            k = succ[h]
            x, y, beta = other[h], other[k], along(h, k)
            fwd = along(y, x) if x != y else ""
            words = (beta + fwd, beta + reverse_word(along(x, y), flip))
            yield beta, words, positive[h] != positive[k]
