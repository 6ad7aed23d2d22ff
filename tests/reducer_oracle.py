"""The rescanning bigon reducer, kept as a differential oracle.

This is the straightforward reducer `cbgraph.position.Reduced` replaced:
after every removal it rescans all strands from position 0 and finds
positions by linear search.  It is quadratic, so tests use it on short
curves only, to check that the worklist reducer removes the same
bigons in the same order.
"""

from __future__ import annotations

from cbgraph import dehn
from cbgraph.geom import Crossing, Drawing, Strand
from cbgraph.kernel import free_reduce, reverse_word


class RescanReduced:
    """Bigon removal by rescanning from the start after every removal."""

    def __init__(self, drawing: Drawing):
        self.drawing = drawing
        self.tri = drawing.tri
        self.seqs: dict[Strand, list[Crossing]] = {}
        self.arcs: dict[Strand, list[tuple[int, ...]]] = {}
        for s in drawing.strands:
            seq = drawing.strand_sequence(s)
            self.seqs[s] = seq
            n = len(seq)
            self.arcs[s] = [
                drawing.arc_letters(s, seq[i], seq[(i + 1) % n]) for i in range(n)
            ]
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

    def _find_bigon(self):
        for s1, seq in self.seqs.items():
            n = len(seq)
            if n < 2:
                continue
            for i in range(n):
                x, y = seq[i], seq[(i + 1) % n]
                if x is y:
                    continue
                _, _, s2, sx = x.strand_data(s1)
                _, _, s2y, sy = y.strand_data(s1)
                if s2y is not s2 or sx == sy:
                    # Bigon corners involve the same strands with
                    # opposite orientations.
                    continue
                seq2 = self.seqs[s2]
                m = len(seq2)
                jx = next(j for j in range(m) if seq2[j] is x)
                alpha = self.arcs[s1][i]
                if seq2[(jx + 1) % m] is y and self._loop_is_trivial(
                    alpha, True, self.arcs[s2][jx]
                ):
                    return s1, i, s2, jx
                jy = next(j for j in range(m) if seq2[j] is y)
                if seq2[(jy + 1) % m] is x and self._loop_is_trivial(
                    alpha, False, self.arcs[s2][jy]
                ):
                    return s1, i, s2, jy
        return None

    def _remove_adjacent(self, s: Strand, i: int):
        # Drop crossings at positions i, i+1 and splice the three arcs
        # around them into one.
        seq, arcs = self.seqs[s], self.arcs[s]
        n = len(seq)
        j = (i + 1) % n
        if n == 2:
            self.seqs[s] = []
            self.arcs[s] = []
            return
        prev = (i - 1) % n
        merged = free_reduce(arcs[prev] + arcs[i] + arcs[j], self.tri.mate)
        keep = [k for k in range(n) if k not in (i, j)]
        new_seq = [seq[k] for k in keep]
        new_arcs = [arcs[k] for k in keep]
        # arcs entry at the position of `prev` must become the merge.
        new_arcs[keep.index(prev)] = merged
        self.seqs[s] = new_seq
        self.arcs[s] = new_arcs

    def _reduce(self):
        while True:
            found = self._find_bigon()
            if found is None:
                return
            s1, i, s2, j = found
            x, y = self.seqs[s1][i], self.seqs[s1][(i + 1) % len(self.seqs[s1])]
            x.alive = False
            y.alive = False
            self._remove_adjacent(s1, i)
            self._remove_adjacent(s2, j)

    def crossings(self, ci: int, cj: int) -> list[Crossing]:
        """Surviving crossings between curves ci and cj (ci may equal cj)."""
        out = []
        for x in self.drawing.crossings:
            if x.alive and {x.s1.curve, x.s2.curve} == {ci, cj}:
                out.append(x)
        return out

    def count(self, ci: int, cj: int) -> int:
        return len(self.crossings(ci, cj))
