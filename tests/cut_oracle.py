"""The homology span test, kept as a differential oracle.

This is how `cbgraph.cb.meridian_of_small` used to decide which side of
a separating curve holds a disjoint nonseparating curve: the curve's
signed edge-crossing vector is tested for membership in the rational
span of each region's loop vectors by `Fraction` Gaussian elimination.
The library now decides the same question with one algebraic
intersection; tests require both to give the same answers.
"""

from __future__ import annotations

from fractions import Fraction

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.cut import CutComplex


def signed_weights(c: CurveClass) -> tuple[int, ...]:
    """Signed edge-crossing vector; a complete H1 invariant of the class."""
    tri = c.tri
    out = [0] * tri.num_edges
    for word in c.words:
        for lam in word:
            e = tri.side_edge[lam]
            t, s = tri.side_of(lam)
            out[e] += 1 if tri.sides[e][1] == (t, s) else -1
    return tuple(out)


def _in_rational_span(vecs, target) -> bool:
    rows = [[Fraction(x) for x in v] for v in vecs]
    t = [Fraction(x) for x in target]
    cols = len(t)
    pivots = []
    for row in rows:
        r = row[:]
        for j, pr in pivots:
            if r[j]:
                f = r[j]
                r = [a - f * b for a, b in zip(r, pr)]
        lead = next((j for j in range(cols) if r[j]), None)
        if lead is not None:
            r = [a / r[lead] for a in r]
            pivots.append((lead, r))
    for j, pr in pivots:
        if t[j]:
            f = t[j]
            t = [a - f * b for a, b in zip(t, pr)]
    return not any(t)


class SpanCutComplex(CutComplex):
    """A cut complex that can also locate a curve by the span test."""

    def region_loop_vectors(self, region):
        """Signed edge-crossing vectors spanning H1 images of loops in a region."""
        from collections import deque

        tri = self.tri
        root = region  # a region is named by its first cell
        adj = {}
        local = []
        for gi, (c1, c2, e, t2, s2) in enumerate(self.gluings):
            if self.region[c1] != region:
                continue
            sign = 1 if tri.sides[e][1] == (t2, s2) else -1
            local.append((gi, c1, c2, e, sign))
            adj.setdefault(c1, []).append((c2, e, sign, gi))
            adj.setdefault(c2, []).append((c1, e, -sign, gi))
        # BFS spanning tree; every non-tree gluing closes a basis loop.
        vec_to_root = {root: [0] * tri.num_edges}
        tree_glue = set()
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt, e, sign, gi in adj.get(cur, []):
                if nxt in vec_to_root:
                    continue
                v = list(vec_to_root[cur])
                v[e] += sign
                vec_to_root[nxt] = v
                tree_glue.add(gi)
                queue.append(nxt)
        vectors = []
        for gi, c1, c2, e, sign in local:
            if gi in tree_glue:
                continue
            v = list(vec_to_root[c1])
            v[e] += sign
            loop = [a - b for a, b in zip(v, vec_to_root[c2])]
            if any(loop):
                vectors.append(tuple(loop))
        return vectors

    def side_containing(self, c: CurveClass):
        """Region holding the nonseparating curve c, for a separating system.

        Requires the system to be a single separating curve disjoint
        from c, so that the two sides split H1 and the signed-weight
        span decides membership.
        """
        if self.system is None or not self.system.is_connected:
            raise ValueError("side analysis needs a single separating curve")
        if not self.system.is_separating:
            raise ValueError("side analysis needs a separating curve")
        if c.is_connected and c.is_separating:
            raise ValueError("side analysis needs a nonseparating curve")
        target = signed_weights(c)
        hits = [
            r
            for r in self.chi
            if _in_rational_span(self.region_loop_vectors(r), target)
        ]
        if len(hits) != 1:
            raise RuntimeError("homology did not decide the side")
        return hits[0]


def meridian_of_small(a, c) -> bool:
    """Whether c bounds a disk in the small compression body of a.

    For separating a only a itself does; for nonseparating a the
    meridians are a and the boundaries of embedded punctured tori
    containing a.
    """
    if not a.is_connected:
        raise ValueError("meridian test needs a connected base curve")
    if c == a:
        return True
    if a.is_separating:
        return False
    if not c.is_connected or not c.is_separating:
        return False
    if ops.intersect(a, c) != 0:
        return False
    cc = SpanCutComplex(a.tri, c)
    side = cc.side_containing(a)
    return cc.region_genus(side) == 1
