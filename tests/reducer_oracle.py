"""The rescanning bigon reducer, kept as a differential oracle.

This is the straightforward reducer `cbgraph.position.Reduced` replaced:
after every removal it rescans all strands from position 0 and finds
positions by linear search.  It is quadratic, so tests use it on short
curves only, to check that the worklist reducer removes the same
bigons in the same order.  It decides a bigon candidate by Dehn's
algorithm (`dehn_oracle`), so the same comparison checks the free
reduction `Reduced` decides it by.

It keeps, per strand, the list of surviving crossings and the list of
arcs after them.  The two walks over a reduced pair that
`Reduced.boundary_words` and `Reduced.arc_closures` replaced read
those lists: the ribbon walk turns by a crossing's rotation of
(strand, direction) darts, and an arc's closures are found by the
positions of its ends in the other strand's list.  `connected` is the
union-find over strands that `Reduced.connected` replaced.

Arcs and words are encoded text, as `Reduced` gives them; a merge is
freely reduced as a tuple (`tuple_words.free_reduce`).  `arc_letters`
is the arc reader that `Drawing` kept for this oracle;
`FractionDrawing` walks its chords with its own.  The reducer reads a
drawing of `drawing_oracle.Crossing`s: the oracle drawing, or an
integer `Drawing` read back by `drawing_oracle.object_form`.
"""

from __future__ import annotations

import dehn_oracle
from drawing_oracle import Crossing
from tuple_words import free_reduce

from cbgraph.geom import Strand
from cbgraph.kernel import decode, encode, reverse_word


def arc_letters(strand: Strand, x: Crossing, y: Crossing) -> str:
    """Directed crossings traversed from x to y along the strand.

    x and y must be consecutive crossings of the strand (y may equal
    x when it is the only one).
    """
    kx, px, _, _ = x.strand_data(strand)
    ky, py, _, _ = y.strand_data(strand)
    if (kx, px) < (ky, py):
        return strand.letters[kx + 1 : ky + 1]
    return strand.letters[kx + 1 :] + strand.letters[: ky + 1]


class RescanReduced:
    """Bigon removal by rescanning from the start after every removal."""

    def __init__(self, drawing):
        self.drawing = drawing
        self.tri = drawing.tri
        self.flip = encode(drawing.tri.mate)
        self.seqs: dict[Strand, list[Crossing]] = {}
        self.arcs: dict[Strand, list[str]] = {}
        read = getattr(drawing, "arc_letters", arc_letters)
        for s in drawing.strands:
            seq = drawing.strand_sequence(s)
            self.seqs[s] = seq
            n = len(seq)
            self.arcs[s] = [read(s, seq[i], seq[(i + 1) % n]) for i in range(n)]
        self._reduce()

    def _loop_is_trivial(self, alpha, beta_forward, beta) -> bool:
        # alpha runs x -> y on one strand; beta runs x -> y (forward) or
        # y -> x on the other.
        if beta_forward:
            loop = alpha + reverse_word(beta, self.flip)
        else:
            loop = alpha + beta
        return dehn_oracle.loop_is_trivial(self.tri, loop)

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
        merged = encode(free_reduce(decode(arcs[prev] + arcs[i] + arcs[j]), self.tri.mate))
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


def ribbon_boundary_words(tri, reduced, strands):
    """Boundary circle words of the regular neighborhood of the strands."""
    flip = encode(tri.mate)
    words = []
    for s in strands:
        if not reduced.seqs[s]:
            words.append(s.letters)
            words.append(reverse_word(s.letters, flip))

    def rotation(x):
        if x.sign > 0:
            return [(x.s1, 1), (x.s2, 1), (x.s1, -1), (x.s2, -1)]
        return [(x.s1, 1), (x.s2, -1), (x.s1, -1), (x.s2, 1)]

    seen = set()
    for s0 in strands:
        for x0 in reduced.seqs[s0]:
            for d0 in (1, -1):
                if (x0, s0, d0) in seen:
                    continue
                word = []
                x, s, d = x0, s0, d0
                while (x, s, d) not in seen:
                    seen.add((x, s, d))
                    p = reduced.seqs[s].index(x)
                    n = len(reduced.seqs[s])
                    if d == 1:
                        word.extend(reduced.arcs[s][p])
                        y = reduced.seqs[s][(p + 1) % n]
                    else:
                        word.extend(reverse_word(reduced.arcs[s][(p - 1) % n], flip))
                        y = reduced.seqs[s][(p - 1) % n]
                    # Arrived at y travelling direction d along s; reverse,
                    # then take the next departing dart counterclockwise.
                    rot = rotation(y)
                    i = rot.index((s, -d))
                    s, d = rot[(i + 1) % 4]
                    x = y
                words.append("".join(word))
    return words


def arc_candidates(tri, reduced, sa, sb, idx):
    """Both neighborhood boundary words for arc idx of the b-strand.

    The arc runs from crossing x to crossing y along b; each candidate
    closes it up with one of the two complementary arcs of a, giving
    the two ways to resolve the corners of N(arc ∪ a).
    """
    seq_b, arcs_b = reduced.seqs[sb], reduced.arcs[sb]
    seq_a, arcs_a = reduced.seqs[sa], reduced.arcs[sa]
    n, m = len(seq_b), len(seq_a)
    x, y = seq_b[idx], seq_b[(idx + 1) % n]
    beta = arcs_b[idx]
    jx, jy = seq_a.index(x), seq_a.index(y)
    fwd_len = (jx - jy) % m
    bwd_len = m if x is y else (jy - jx) % m
    alpha_fwd = "".join(arcs_a[(jy + t) % m] for t in range(fwd_len))
    alpha_bwd = "".join(arcs_a[(jx + t) % m] for t in range(bwd_len))
    return beta, (beta + alpha_fwd, beta + reverse_word(alpha_bwd, encode(tri.mate)))


def arc_closures(tri, reduced):
    """(beta, words, returning) per arc of curve 1's strand, in order.

    An arc is returning when its end crossings have opposite signs
    seen from curve 1.
    """
    sa, sb = reduced.drawing.strands
    seq_b = reduced.seqs[sb]
    n = len(seq_b)
    out = []
    for idx in range(n):
        x, y = seq_b[idx], seq_b[(idx + 1) % n]
        beta, words = arc_candidates(tri, reduced, sa, sb, idx)
        out.append((beta, words, x.strand_data(sb)[3] != y.strand_data(sb)[3]))
    return out


def connected(reduced):
    """Whether the strands and the surviving crossings form one piece."""
    strands = reduced.drawing.strands
    parent = {id(s): id(s) for s in strands}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in reduced.drawing.crossings:
        if x.alive:
            parent[find(id(x.s1))] = find(id(x.s2))
    return len({find(id(s)) for s in strands}) == 1
