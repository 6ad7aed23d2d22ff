"""Curve operations built on exact drawings and bigon reduction.

Twists are computed by rerouting: every transversal crossing of the
drawn curve with the twisting curve inserts a full pass around the
twisting curve, in the direction given by the crossing sign, which is
exactly the image under the annulus twist homeomorphism (excess
crossings insert cancelling passes, so minimal position is not needed).
Intersection numbers come from exhaustive bigon removal; the boundary
of a regular neighborhood is traced from the ribbon structure of the
reduced crossing data.

The exact answers whose inputs repeat are memoised per process in
bounded `functools.lru_cache`s of `MEMO_ENTRIES` entries: the geometric
and the algebraic intersection number of a pair, and the punctured-torus
test of a curve set.  They key on the curves (value-typed and hashable)
and hold only ints and bools.  A key keeps its curves alive.  Measured
with `tracemalloc`, an entry costs about 150 bytes on top of curves that
live elsewhere; after a cold acceptance pass (seed 101) the memos of
this module, `projections` and `farey` hold 1,733 entries and 0.86 MB,
the curves that only the keys still reference included.  The
package's other memos, among them two that hold curves and bodies
rather than ints and bools, are listed in `cbgraph/__init__.py`.  Left
out on purpose:

- Drawings, and with them `Reduced`: a drawing of two long curves is
  large, and memoising 1,024 drawings raised the peak RSS of the scale
  benchmark from 27.3 to 34.7 MB.
- `twist`: 1,481 of the 2,261 calls of an acceptance pass are distinct,
  and the scale benchmark generates its inputs by twisting exactly the
  curves its timed pass twists, so a memo would time cache reads.
- `neighborhood_profile`, which returns a mutable record, and
  `band_sum`, whose inputs do not repeat.
"""

from __future__ import annotations

from functools import lru_cache

from cbgraph import MEMO_ENTRIES, dehn
from cbgraph.curves import CurveClass
from cbgraph.geom import Drawing
from cbgraph.kernel import reverse_word
from cbgraph.position import Reduced


def intersect(a: CurveClass, b: CurveClass) -> int:
    """Geometric intersection number of the classes on the closed surface.

    The number is symmetric, so the memo is read with the pair sorted.
    """
    if a == b:
        return 0
    if b < a:
        a, b = b, a
    return _intersect(a, b)


@lru_cache(maxsize=MEMO_ENTRIES)
def _intersect(a: CurveClass, b: CurveClass) -> int:
    drawing = Drawing(a.tri, [a, b])
    raw = drawing.raw_count(0, 1)
    if raw == abs(drawing.algebraic(0, 1)):
        # |algebraic| <= minimal <= drawn, so the drawing is minimal.
        return raw
    return Reduced(drawing).count(0, 1)


def algebraic_intersect(a: CurveClass, b: CurveClass, orientations=(1, 1)) -> int:
    """Signed intersection count for the traced orientations.

    `orientations` flips the default (traced) orientation of a and b.
    """
    if not (a.is_connected and b.is_connected):
        raise ValueError("algebraic_intersect needs connected curves")
    oa, ob = orientations
    if abs(oa) != 1 or abs(ob) != 1:
        raise ValueError("orientations must be +1 or -1")
    if a == b:
        return 0
    # Swapping the pair negates the count of the traced orientations.
    if b < a:
        return -oa * ob * _algebraic(b, a)
    return oa * ob * _algebraic(a, b)


@lru_cache(maxsize=MEMO_ENTRIES)
def _algebraic(a: CurveClass, b: CurveClass) -> int:
    return Drawing(a.tri, [a, b]).algebraic(0, 1)


def twist(c: CurveClass, along: CurveClass, power: int) -> CurveClass:
    """Image of c under the power-th right-handed Dehn twist along `along`."""
    if not along.is_connected:
        raise ValueError("twisting curve must be connected")
    if power == 0:
        return c
    tri = c.tri
    drawing = Drawing(tri, [c, along])
    words = []
    for s in drawing.strands:
        if s.curve != 0:
            continue
        # Splice a pass around `along` into the word after the chord of
        # each crossing, in strand order; curve 0 is each crossing's s1.
        letters = s.letters
        out, done = [], 0
        for x in drawing.strand_sequence(s):
            out.extend(letters[done : x.k1 + 1])
            done = x.k1 + 1
            sd, kd = x.s2, x.k2
            rot = sd.letters[kd + 1 :] + sd.letters[: kd + 1]
            if x.sign * power < 0:
                rot = reverse_word(rot, tri.mate)
            out.extend(rot * abs(power))
        out.extend(letters[done:])
        words.append(tuple(out))
    return CurveClass.from_words(tri, words)


def band_sum(a: CurveClass, b: CurveClass) -> CurveClass:
    """Boundary of a regular neighborhood of a ∪ b when i(a,b) = 1."""
    if not (a.is_connected and b.is_connected):
        raise ValueError("band_sum needs connected curves")
    tri = a.tri
    reduced = Reduced(Drawing(tri, [a, b]))
    survivors = reduced.crossings(0, 1)
    if len(survivors) != 1:
        raise ValueError("band_sum needs curves intersecting exactly once")
    x = survivors[0]
    sa, sb = x.s1, x.s2
    ka, kb = x.k1, x.k2
    wa = sa.letters[ka + 1 :] + sa.letters[: ka + 1]
    wb = sb.letters[kb + 1 :] + sb.letters[: kb + 1]
    word = (
        wa + wb + reverse_word(wa, tri.mate) + reverse_word(wb, tri.mate)
    )
    return CurveClass.from_word(tri, word)


class NeighborhoodProfile:
    """Filled regular neighborhood of a curve union.

    `boundary_words` lists one directed-crossing word per boundary
    circle of N; inessential circles (they bound disks in the
    complement) are capped, and the rest become `boundary_classes`.
    """

    __slots__ = (
        "connected",
        "genus",
        "boundary_components",
        "boundary_classes",
        "essential_flags",
        "chi_uncapped",
    )

    def __repr__(self):
        if not self.connected:
            return "NeighborhoodProfile(disconnected)"
        return (
            f"NeighborhoodProfile(genus={self.genus}, "
            f"boundary={self.boundary_components})"
        )


def _ribbon_boundary_words(tri, reduced, strands):
    """Boundary circle words of the regular neighborhood of the strands."""
    words = []
    for s in strands:
        if not reduced.seqs[s]:
            words.append(tuple(s.letters))
            words.append(reverse_word(tuple(s.letters), tri.mate))

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
                    p = reduced.index(s, x)
                    n = len(reduced.seqs[s])
                    if d == 1:
                        word.extend(reduced.arcs[s][p])
                        y = reduced.seqs[s][(p + 1) % n]
                    else:
                        word.extend(
                            reverse_word(reduced.arcs[s][(p - 1) % n], tri.mate)
                        )
                        y = reduced.seqs[s][(p - 1) % n]
                    # Arrived at y travelling direction d along s; reverse,
                    # then take the next departing dart counterclockwise.
                    rot = rotation(y)
                    i = rot.index((s, -d))
                    s, d = rot[(i + 1) % 4]
                    x = y
                words.append(tuple(word))
    return words


def neighborhood_profile(curves) -> NeighborhoodProfile:
    """Genus/boundary record of the filled neighborhood of a curve union.

    The union has at most two distinct curves; more raise ValueError
    from the drawing.
    """
    curves = sorted(set(curves))
    if not curves:
        raise ValueError("empty curve set")
    tri = curves[0].tri
    reduced = Reduced(Drawing(tri, curves))
    strands = reduced.drawing.strands

    # Connectivity of N over strands through surviving crossings.
    parent = {id(s): id(s) for s in strands}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    crossings = [x for x in reduced.drawing.crossings if x.alive]
    for x in crossings:
        parent[find(id(x.s1))] = find(id(x.s2))
    roots = {find(id(s)) for s in strands}

    prof = NeighborhoodProfile()
    prof.connected = len(roots) == 1
    # N retracts to the 4-valent union graph: V = crossings, E = 2 * crossings,
    # plus annuli for crossing-free strands.
    prof.chi_uncapped = -len(crossings)
    if not prof.connected:
        prof.genus = None
        prof.boundary_components = None
        prof.boundary_classes = None
        prof.essential_flags = None
        return prof

    words = _ribbon_boundary_words(tri, reduced, strands)
    flags = [
        not dehn.is_trivial(tri.genus, dehn.path_word(tri, w)) for w in words
    ]
    capped = flags.count(False)
    essential = [w for w, f in zip(words, flags) if f]
    chi_filled = prof.chi_uncapped + capped
    b = len(essential)
    prof.genus = (2 - chi_filled - b) // 2
    prof.boundary_components = b
    prof.boundary_classes = sorted(
        {CurveClass.from_word(tri, w) for w in essential}
    )
    prof.essential_flags = tuple(flags)
    return prof


def common_punctured_torus(curves) -> bool:
    """Whether one embedded once-punctured torus contains every curve.

    Three or more curves are decided through pair data: two distinct
    essential curves in a punctured torus always cross, two crossing
    curves fill the torus they share, so the filled neighborhood of the
    first pair is the only candidate, and each remaining curve lies in
    it exactly when it misses the boundary and sits on the torus side.
    """
    curves = sorted(set(curves))
    if not curves:
        raise ValueError("empty curve set")
    for c in curves:
        if not c.is_connected:
            raise ValueError("curves must be connected")
        if c.is_separating:
            raise ValueError("curves must be nonseparating")
    return _common_punctured_torus(tuple(curves))


@lru_cache(maxsize=MEMO_ENTRIES)
def _common_punctured_torus(curves: tuple[CurveClass, ...]) -> bool:
    if len(curves) == 1:
        return True
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if intersect(curves[i], curves[j]) == 0:
                return False
    prof = neighborhood_profile(curves[:2])
    if not (
        prof.connected and prof.genus == 1 and prof.boundary_components == 1
    ):
        return False
    if len(curves) == 2:
        return True
    from cbgraph.cut import CutComplex

    boundary = prof.boundary_classes[0]
    cut = CutComplex(curves[0].tri, boundary)
    torus_region = cut.region_containing(curves[0])
    for c in curves[2:]:
        if intersect(c, boundary) != 0:
            return False
        if cut.region_containing(c) != torus_region:
            return False
    return True


def orbit(base, twists, max_word: int):
    """All images of base curves under twist words of bounded length."""
    if max_word < 0:
        raise ValueError("max_word must be nonnegative")
    twists = sorted(set(twists))
    current = sorted(set(base))
    out = set(current)
    for _ in range(max_word):
        nxt = []
        for c in current:
            for d in twists:
                for p in (1, -1):
                    img = twist(c, d, p)
                    if img not in out:
                        out.add(img)
                        nxt.append(img)
        current = nxt
        if not current:
            break
    return sorted(out)
