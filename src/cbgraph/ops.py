"""Curve operations built on exact drawings and bigon reduction.

Twists are computed by rerouting: every transversal crossing of the
drawn curve with the twisting curve inserts a full pass around the
twisting curve, in the direction given by the crossing sign, which is
exactly the image under the annulus twist homeomorphism (excess
crossings insert cancelling passes, so minimal position is not needed).
The image is spliced from the drawn strands' text (`Strand.letters`),
its length checked against `MAX_TWIST_LETTERS` first, joined once and
handed to `CurveClass.from_texts`.  The boundary of a regular
neighborhood is the ribbon walk of the reduced pair,
`Reduced.boundary_words`, whose texts go to `CurveClass.from_texts`.

Only an answer that needs the crossings draws.  `geom.crossing_counts`
gives both stacked orders' crossing counts and the signed count, an
isotopy invariant: `algebraic_intersect` returns the latter; `_intersect`
returns a count equal to |signed| (|algebraic| <= minimal <= drawn),
else draws and removes bigons; `twist` returns c when an order has no
crossing; the punctured-torus test of two curves meeting once builds no
profile.
`band_sum`, `neighborhood_profile` and `reduced_pair` draw and reduce.

The exact answers whose inputs repeat are memoised per process in
bounded `functools.lru_cache`s of `MEMO_ENTRIES` entries: the geometric
intersection number of a pair and the punctured-torus test of a curve
set; the algebraic count has none of its own, being one dot product of
the corner counts that `geom` keeps per class.  They key on the curves
(value-typed and hashable) and hold only ints and bools.  A key keeps
its curves alive.  Measured with `tracemalloc`, an entry costs about
150 bytes on top of curves that live elsewhere; after a cold acceptance
pass (seed 101) the memos of this module and `projections` hold 1,503
entries and 0.42 MB, the
curves that only the keys still reference included (most are keys of
`geom`'s corner counts too), each with the trace it keeps.  The
package's other memos, among them two that hold curves and bodies
rather than ints and bools, are listed in `cbgraph/__init__.py`.

Drawings are shared through one record, `LAST_PAIR`: the last curve
pair drawn, its `Drawing`, and its `Reduced` once an operation needs it
(built lazily, then kept).  A call on another pair drops the record
before it draws, so no more drawings are alive at once than without it.
The operations whose answers do not depend on the drawing order also
reuse a record drawn in the reversed order: `_intersect` and
`band_sum`, which are symmetric in the pair, and `twist`, which reads
each crossing from its own curve's side through
`Drawing.crossings_along`: per half of a strand of c, its chord, the
letters and chord of `along` there, and its sign.
`neighborhood_profile` and `reduced_pair`, whose outputs follow the
drawing order (`essential_flags`, surgery candidates), redraw it.
There is one record and not a memo of drawings because a drawing of two
long curves is large: memoising 1,024 drawings raised the peak RSS of
the scale benchmark from 27.3 to 34.7 MB, while a pair's operations run
one after another.  `Reduced` clears `alive` on the crossings of the
shared drawing, the one flag a `Crossing` keeps, because the benchmark's
bigon count reads it there; a flag owned by `Reduced` waits for the
layers to count their own work (ROADMAP item 26).  The walk of `twist`
ignores `alive`, so it reads the same drawing before and after its
reduction.
The record is shared by every caller in the process, so these
operations must not run in several threads at once; nothing in the
package starts a thread.

Left out of the memos on purpose:

- `twist`: 1,481 of the 2,261 calls of an acceptance pass are distinct,
  and the scale benchmark generates its inputs by twisting exactly the
  curves its timed pass twists, so a memo would time cache reads.
- `neighborhood_profile`, which returns a mutable record, and
  `band_sum`, whose inputs do not repeat.  The record builds its
  `boundary_classes` when they are first read, not when it is made: the
  punctured-torus test of two curves reads only connectivity, genus and
  the boundary count, so it canonicalises no boundary circle.
"""

from __future__ import annotations

from functools import lru_cache

from cbgraph import MEMO_ENTRIES, dehn
from cbgraph.curves import CurveClass, translate_tables
from cbgraph.geom import Drawing, crossing_counts
from cbgraph.kernel import reverse_word
from cbgraph.position import Reduced

# Letters a twist's image may have, checked before it is spliced; the
# scale benchmark's twisted words run to about 24,000 letters.
MAX_TWIST_LETTERS = 10**7


class PairRecord:
    """The last curve pair drawn: its drawing and, once asked for, its reduction."""

    __slots__ = ("drawing", "_reduced")

    def __init__(self):
        self.clear()

    def clear(self):
        self.drawing = self._reduced = None

    def draw(self, a: CurveClass, b: CurveClass, either_order: bool) -> tuple[int, int]:
        """Hold a drawing of the pair; returns the drawing's indices of a and b.

        A record of (a, b) is kept, and so is one of (b, a) when
        `either_order`; otherwise the record is dropped and (a, b) drawn.
        """
        if self.drawing is not None:
            x, y = self.drawing.curves
            if x == a and y == b:
                return 0, 1
            if either_order and x == b and y == a:
                return 1, 0
        self.clear()  # free the old drawing before the new one is built
        self.drawing = Drawing(a.tri, [a, b])
        return 0, 1

    @property
    def reduced(self) -> Reduced:
        if self._reduced is None:
            try:
                self._reduced = Reduced(self.drawing)
            except BaseException:
                # A reduction cut short has cleared `alive` on some crossings.
                self.clear()
                raise
        return self._reduced


LAST_PAIR = PairRecord()


def reduced_pair(a: CurveClass, b: CurveClass) -> Reduced:
    """Bigon reduction of the pair drawn in the order (a, b), from the record."""
    LAST_PAIR.draw(a, b, either_order=False)
    return LAST_PAIR.reduced


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
    raw, reversed_raw, alg = crossing_counts(a, b)
    if min(raw, reversed_raw) == abs(alg):
        # |algebraic| <= minimal <= drawn, so that order's drawing is minimal.
        return abs(alg)
    LAST_PAIR.draw(a, b, either_order=True)
    return LAST_PAIR.reduced.count()


def algebraic_intersect(a: CurveClass, b: CurveClass) -> int:
    """Signed intersection count for the traced orientations."""
    if not (a.is_connected and b.is_connected):
        raise ValueError("algebraic_intersect needs connected curves")
    if a == b:
        return 0
    return crossing_counts(a, b)[2]


def twist(c: CurveClass, along: CurveClass, power: int) -> CurveClass:
    """Image of c under the power-th right-handed Dehn twist along `along`."""
    if not along.is_connected:
        raise ValueError("twisting curve must be connected")
    if power == 0:
        return c
    if not all(crossing_counts(c, along)[:2]):
        # The twist is supported near `along`, which c is drawn apart from.
        return c
    tri = c.tri
    ic, _ = LAST_PAIR.draw(c, along, either_order=True)
    drawing = LAST_PAIR.drawing
    # Each crossing adds |power| passes of along's letters to c's.
    size = sum(map(len, c.texts)) + abs(power) * len(drawing.crossings) * len(along.texts[0])
    if size > MAX_TWIST_LETTERS:
        raise RuntimeError(
            f"twist exceeded MAX_TWIST_LETTERS = {MAX_TWIST_LETTERS}: power {power}"
            f" would give an image of {size} letters"
        )
    flip = translate_tables(tri).flip
    texts = []
    for m, s in enumerate(drawing.strands):
        if s.curve != ic:
            continue
        # Splice a pass around `along` into the text after the chord of
        # each crossing, in strand order, with the sign seen from c: a
        # rotation of along's text, reversed when sign and power disagree.
        text = s.letters
        parts, done = [], 0
        for k, around, kd, positive in drawing.crossings_along(m):
            parts.append(text[done : k + 1])
            done = k + 1
            rot = around[kd + 1 :] + around[: kd + 1]
            if positive != (power > 0):
                rot = reverse_word(rot, flip)
            parts.append(rot * abs(power))
        parts.append(text[done:])
        texts.append("".join(parts))
    return CurveClass.from_texts(tri, texts)


def band_sum(a: CurveClass, b: CurveClass) -> CurveClass:
    """Boundary of a regular neighborhood of a ∪ b when i(a,b) = 1."""
    if not (a.is_connected and b.is_connected):
        raise ValueError("band_sum needs connected curves")
    LAST_PAIR.draw(a, b, either_order=True)
    reduced = LAST_PAIR.reduced
    if reduced.count() != 1:
        raise ValueError("band_sum needs curves intersecting exactly once")
    # With one crossing the neighborhood is a punctured torus, whatever
    # the drawing order: its boundary is the one circle of the ribbon walk.
    (word,) = reduced.boundary_words()
    return CurveClass.from_texts(a.tri, [word])


class NeighborhoodProfile:
    """Filled regular neighborhood of a curve union.

    `FIELDS` names the public fields.  Each boundary circle of N is a
    directed-crossing word, and `essential_flags` marks which are
    essential, in the order `Reduced.boundary_words` lists them;
    inessential circles (they bound disks in the complement) are capped.
    `boundary_classes` lists the classes of the essential circles,
    sorted; it is built on first read and then kept.  A disconnected
    union has no boundary data: those fields are None.
    """

    FIELDS = (
        "connected",
        "genus",
        "boundary_components",
        "boundary_classes",
        "essential_flags",
        "chi_uncapped",
    )
    __slots__ = (
        "connected",
        "genus",
        "boundary_components",
        "essential_flags",
        "chi_uncapped",
        "_tri",
        "_essential",
        "_classes",
    )

    @property
    def boundary_classes(self) -> list[CurveClass] | None:
        if self._classes is None and self._essential is not None:
            self._classes = sorted(
                {CurveClass.from_texts(self._tri, [w]) for w in self._essential}
            )
        return self._classes

    def __repr__(self):
        if not self.connected:
            return "NeighborhoodProfile(disconnected)"
        return (
            f"NeighborhoodProfile(genus={self.genus}, "
            f"boundary={self.boundary_components})"
        )


def neighborhood_profile(curves) -> NeighborhoodProfile:
    """Genus/boundary record of the filled neighborhood of a curve union.

    The union has at most two distinct curves; more raise ValueError
    from the drawing.
    """
    curves = sorted(set(curves))
    if not curves:
        raise ValueError("empty curve set")
    tri = curves[0].tri
    if len(curves) == 2:
        reduced = reduced_pair(*curves)
    else:
        reduced = Reduced(Drawing(tri, curves))
    prof = NeighborhoodProfile()
    prof._tri = tri
    prof._essential = prof._classes = None
    prof.connected = reduced.connected()
    # N retracts to the 4-valent union graph: V = crossings, E = 2 * crossings,
    # plus annuli for crossing-free strands.
    prof.chi_uncapped = -reduced.count()
    if not prof.connected:
        prof.genus = None
        prof.boundary_components = None
        prof.essential_flags = None
        return prof

    words = reduced.boundary_words()
    flags = [not dehn.is_trivial(tri, w) for w in words]
    capped = flags.count(False)
    essential = [w for w, f in zip(words, flags) if f]
    chi_filled = prof.chi_uncapped + capped
    b = len(essential)
    prof.genus = (2 - chi_filled - b) // 2
    prof.boundary_components = b
    prof._essential = essential
    prof.essential_flags = tuple(flags)
    return prof


def common_punctured_torus(curves) -> bool:
    """Whether one embedded once-punctured torus contains every curve.

    Three or more curves are decided through pair data: two distinct
    essential curves in a punctured torus always cross, two crossing
    curves fill the torus they share, so the filled neighborhood T of
    the first pair a, b is the only candidate.  Every pair crosses, so
    each remaining curve c lies in T exactly when it misses the
    boundary: a curve disjoint from the boundary can be isotoped into T
    or into the far side, and everything on the far side misses a,
    which c crosses; in T it is not peripheral, being nonseparating.
    Conversely a common punctured torus contains the filled
    neighborhood of a and b, so its boundary is parallel to that of T,
    and every curve misses it.

    Two curves meeting once need no profile: N(a ∪ b) is a punctured
    torus, whose boundary is essential because the genus is at least 2.
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
    if len(curves) == 2 and intersect(*curves) == 1:
        return True
    prof = neighborhood_profile(curves[:2])
    if not (
        prof.connected and prof.genus == 1 and prof.boundary_components == 1
    ):
        return False
    if len(curves) == 2:
        return True
    boundary = prof.boundary_classes[0]
    return all(intersect(c, boundary) == 0 for c in curves[2:])


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
