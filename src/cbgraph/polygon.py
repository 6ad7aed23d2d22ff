"""Authoring curves as chord sequences on the identified 4g-gon.

The genus-g surface is the quotient of a convex 4g-gon with the side
word a b a' b' c d c' d' ...; a curve is given by the ordered points
where it crosses the sides, and the chords between consecutive points
are traced through the fan diagonals to produce the curve's dual word.
The triangulation fans out from vertex 0, so a chord's diagonals follow
from the two sides it joins alone: no coordinates are formed, and a
side parameter only has to lie strictly inside (0, 1).
"""

from __future__ import annotations

from fractions import Fraction

from cbgraph.curves import CurveClass
from cbgraph.surface import Triangulation


def partner_side(j: int) -> int:
    # Sides pair as a b a' b' per handle: 4k <-> 4k+2, 4k+1 <-> 4k+3.
    k, r = divmod(j, 4)
    return 4 * k + (r + 2) % 4


def _side_incidence(genus: int, p: int) -> tuple[int, int]:
    # Fan triangle and slot carrying polygon side p.
    n = 4 * genus
    if p == 0:
        return 0, 0
    if p == n - 1:
        return n - 3, 2
    return p - 1, 1


def _chord_letters(genus: int, p: int, q: int) -> list[int]:
    """Directed crossings of a chord entering across side p, leaving across q.

    One letter for side p, then one per fan diagonal.  The fan triangles
    are angular sectors around vertex 0, so the chord crosses exactly the
    diagonals between the sectors of p and q, in order.
    """
    t_in, slot_in = _side_incidence(genus, p)
    t_out, _ = _side_incidence(genus, q)
    word = [3 * t_in + slot_in]
    if t_out > t_in:
        word.extend(3 * t for t in range(t_in + 1, t_out + 1))
    else:
        word.extend(3 * t + 2 for t in range(t_in - 1, t_out - 1, -1))
    return word


def handle_curves(tri: Triangulation) -> list[CurveClass]:
    """The 2g standard handle curves, alternating duals per handle.

    Entries 2k, 2k+1 intersect once; curves of different handles are
    disjoint.
    """
    out = []
    for k in range(tri.genus):
        out.append(curve_from_chords(tri, [(4 * k, Fraction(1, 2))]))
        out.append(curve_from_chords(tri, [(4 * k + 1, Fraction(1, 2))]))
    return out


def chain_connector(tri: Triangulation, k: int) -> CurveClass:
    """A curve joining handles k and k+1, crossing each of their a-curves once."""
    if not 0 <= k < tri.genus - 1:
        raise ValueError("no such adjacent handle pair")
    return curve_from_chords(
        tri, [(4 * k + 1, Fraction(1, 3)), (4 * k + 5, Fraction(1, 3))]
    )


def curve_from_chords(tri: Triangulation, crossings) -> CurveClass:
    """Curve through the given (side, parameter) boundary points in order.

    After crossing side j at parameter t the curve re-enters at the
    partner point (partner_side(j), 1 - t) and runs straight to the next
    listed point.  The result is the directed-crossing word: one letter
    for the side crossing, then one per fan diagonal the chord meets.
    """
    specs = [(j, Fraction(t)) for j, t in crossings]
    for j, t in specs:
        if not (0 < t < 1):
            raise ValueError("side parameters must lie strictly inside (0,1)")
    word = []
    for idx, (j, _) in enumerate(specs):
        j2 = specs[(idx + 1) % len(specs)][0]
        word.extend(_chord_letters(tri.genus, partner_side(j), j2))
    return CurveClass.from_word(tri, word)
