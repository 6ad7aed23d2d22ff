"""Interior boundary projection to a side of a separating curve.

A separating curve a splits the surface into two complementary
components; a side selector names one of them, Sigma_F.  The projection
of a curve b is: b itself if b lives in Sigma_F, the boundary circles
of regular neighborhoods N(beta ∪ a) for the arcs beta of b ∩ Sigma_F
if b crosses a, and empty otherwise.  Each neighborhood boundary is
produced by splicing the arc's dual word with the two complementary
arcs of a, exactly as in a band sum; inessential and boundary-parallel
circles are discarded.  When the capped side is a torus the projected
curves are graded by slopes through an in-side dual basis, giving exact
Farey diameters and distance witnesses.
"""

from __future__ import annotations

from functools import lru_cache

from cbgraph import MEMO_ENTRIES, cut, ops
from cbgraph.curves import CurveClass
from cbgraph.cut import CutComplex
from cbgraph.farey import Slope, enumerate_slopes, farey_distance
from cbgraph.kernel import reverse_word
from cbgraph.model import EmbeddedToriModel
from cbgraph.position import Reduced

MAX_WITNESS_HEIGHT = 64


class SideSelector:
    """One complementary component Sigma_F of a separating curve.

    Selectors are equal when their curve and side are: those two
    determine the cut complex and the region.
    """

    __slots__ = ("curve", "side", "complex", "region")

    def __init__(self, curve: CurveClass, side: str):
        if not curve.is_connected or not curve.is_separating:
            raise ValueError("side selection needs a connected separating curve")
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self._place(curve, side, CutComplex(curve.tri, curve))

    def _place(self, curve: CurveClass, side: str, complex: CutComplex):
        self.curve = curve
        self.side = side
        self.complex = complex
        left, right = complex.sides_of(curve)
        self.region = left if side == "left" else right
        if self.genus < 1:
            raise RuntimeError("side of a separating curve must have genus >= 1")

    @property
    def genus(self) -> int:
        return self.complex.region_genus(self.region)

    def other(self) -> "SideSelector":
        """The selector of the other side, sharing this one's cut complex."""
        sel = SideSelector.__new__(SideSelector)
        sel._place(self.curve, "right" if self.side == "left" else "left", self.complex)
        return sel

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is SideSelector
            and self.curve == other.curve
            and self.side == other.side
        )

    def __hash__(self) -> int:
        return hash((self.curve, self.side))

    def __repr__(self):
        return f"SideSelector(side={self.side!r}, genus={self.genus})"


def _strand_of(reduced: Reduced, curve_index: int):
    return next(s for s in reduced.drawing.strands if s.curve == curve_index)


def _arc_candidates(tri, reduced, sa, sb, idx):
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
    jx, jy = reduced.index(sa, x), reduced.index(sa, y)
    fwd_len = (jx - jy) % m
    bwd_len = m if x is y else (jy - jx) % m
    alpha_fwd = tuple(
        lam for t in range(fwd_len) for lam in arcs_a[(jy + t) % m]
    )
    alpha_bwd = tuple(
        lam for t in range(bwd_len) for lam in arcs_a[(jx + t) % m]
    )
    return beta, (beta + alpha_fwd, beta + reverse_word(alpha_bwd, tri.mate))


def _curve_or_none(tri, word):
    if not word:
        return None
    try:
        return CurveClass.from_word(tri, word)
    except ValueError:
        # Trivial or vertex-linking circles are not curves; discard.
        return None


def project(sel: SideSelector, b: CurveClass) -> set[CurveClass]:
    """Interior boundary projection of b to the selected side.

    The answer is memoised per (selector, curve) as a frozenset; every
    call returns a fresh set.  A memo key keeps its selector, and so its
    cut complex, alive.
    """
    if not b.is_connected:
        raise ValueError("projection needs a connected curve")
    return set(_project(sel, b))


@lru_cache(maxsize=MEMO_ENTRIES)
def _project(sel: SideSelector, b: CurveClass) -> frozenset[CurveClass]:
    a = sel.curve
    if b == a:
        # Boundary-parallel in the capped side.
        return frozenset()
    if ops.intersect(a, b) == 0:
        if sel.complex.region_containing(b) == sel.region:
            return frozenset((b,))
        return frozenset()

    tri = a.tri
    reduced = ops.reduced_pair(a, b)
    sa, sb = _strand_of(reduced, 0), _strand_of(reduced, 1)
    out = set()
    for idx in range(len(reduced.seqs[sb])):
        _, words = _arc_candidates(tri, reduced, sa, sb, idx)
        kept = [
            c
            for c in (_curve_or_none(tri, w) for w in words)
            if c is not None and c != a
        ]
        if not kept:
            continue
        # Both circles of one arc lie in the arc's side; test one.
        if sel.complex.region_containing(kept[0]) != sel.region:
            continue
        out.update(kept)
    return frozenset(out)


def innermost_surgery(a: CurveClass, b: CurveClass) -> dict:
    """Surgery of a along an innermost returning arc of b.

    Picks an arc of b meeting a exactly at its endpoints, preferring
    one whose endpoint crossings have opposite signs along b (the arc
    returns on the side it left, so both surgered circles push off a).
    When every arc crosses coherently the best available arc is used
    instead; the surgered circles then still cross b fewer times than a
    did.
    """
    if not (a.is_connected and b.is_connected):
        raise ValueError("surgery needs connected curves")
    if ops.intersect(a, b) == 0:
        raise ValueError("surgery needs intersecting curves")
    tri = a.tri
    reduced = ops.reduced_pair(a, b)
    sa, sb = _strand_of(reduced, 0), _strand_of(reduced, 1)
    seq_b = reduced.seqs[sb]
    n = len(seq_b)
    records = []
    for idx in range(n):
        x, y = seq_b[idx], seq_b[(idx + 1) % n]
        beta, words = _arc_candidates(tri, reduced, sa, sb, idx)
        pair = [_curve_or_none(tri, w) for w in words]
        if None in pair:
            continue
        returning = x.strand_data(sb)[3] != y.strand_data(sb)[3]
        cost = ops.intersect(pair[0], a) + ops.intersect(pair[1], a)
        records.append((not returning, cost, idx, beta, tuple(pair)))
    if not records:
        raise ValueError("no arc of b admits a surgery")
    _, _, _, beta, pair = min(records)
    return {"b_arc": beta, "candidates": pair}


class TorusBasis:
    """Dual curve pair spanning a genus-1 side, with its slope chart.

    Slopes are read off through algebraic intersection with the basis;
    the sign convention is calibrated once against the side's embedded
    torus model, so slope charts and curve realization agree exactly.
    """

    __slots__ = ("selector", "alpha", "beta", "model", "_eps")

    def __init__(self, sel: SideSelector):
        if sel.genus != 1:
            raise ValueError("slope charts need a genus-1 side")
        self.selector = sel
        self.alpha = sel.complex.nonseparating_in_region(sel.region)
        self.beta = cut.dual_curve(self.alpha, [sel.curve])
        self.model = EmbeddedToriModel(alpha=self.alpha, beta=self.beta)
        one_one = self.model.image(Slope(1, 1))
        p = ops.algebraic_intersect(one_one, self.beta)
        q = ops.algebraic_intersect(one_one, self.alpha)
        self._eps = 1 if (p > 0) == (q > 0) else -1

    def slope_of(self, c: CurveClass) -> Slope:
        p = ops.algebraic_intersect(c, self.beta)
        q = self._eps * ops.algebraic_intersect(c, self.alpha)
        if p == 0 and q == 0:
            raise ValueError("curve pairs trivially with the side basis")
        return Slope(p, q)

    def realize(self, s: Slope) -> CurveClass:
        return self.model.image(s)


def projection_slopes(sel: SideSelector, b: CurveClass, basis=None) -> set[Slope]:
    basis = basis or TorusBasis(sel)
    return {basis.slope_of(c) for c in project(sel, b)}


def projection_diameter_torus(sel: SideSelector, b: CurveClass) -> int:
    """Exact Farey diameter of the projection in a genus-1 side."""
    slopes = projection_slopes(sel, b)
    if len(slopes) < 2:
        return 0
    items = sorted(slopes)
    return max(
        farey_distance(s, t)
        for i, s in enumerate(items)
        for t in items[i + 1 :]
    )


def diam_witness(sel: SideSelector, b: CurveClass, basis=None) -> Slope:
    """First slope by height at Farey distance >= 2 from the projection."""
    basis = basis or TorusBasis(sel)
    slopes = projection_slopes(sel, b, basis)
    for h in range(1, MAX_WITNESS_HEIGHT + 1):
        for c in sorted(enumerate_slopes(h)):
            if all(farey_distance(c, s) >= 2 for s in slopes):
                return c
    raise RuntimeError("no witness slope within the height bound")


def surjdisc_witness(a: CurveClass, b: CurveClass, container) -> CurveClass | None:
    """A projected curve of b that is a meridian of the piece beyond S[a].

    The container must certifiably contain S[a]; the piece beyond S[a]
    is read off the container's marking curves in each side of a.  The
    containment of S[b] may be left open by the certifier: the point of
    the search is that returning None refutes it, so only a certified
    non-containment makes the query meaningless.
    """
    from cbgraph.cb import Containment, contains, small_cb

    if not (a.is_connected and a.is_separating):
        raise ValueError("the base curve must be connected and separating")
    if contains(small_cb(a), container) is not Containment.TRUE:
        raise ValueError("container does not certifiably contain S[a]")
    if contains(small_cb(b), container) is Containment.FALSE:
        raise ValueError("container certifiably excludes S[b]")
    others = [c for c in container.system if c != a]
    left = SideSelector(a, "left")
    for sel in (left, left.other()):
        marks = [
            c
            for c in others
            if ops.intersect(c, a) == 0
            and c != a
            and sel.complex.region_containing(c) == sel.region
        ]
        if not marks:
            continue
        for m in sorted(project(sel, b)):
            if m in marks:
                return m
    return None
