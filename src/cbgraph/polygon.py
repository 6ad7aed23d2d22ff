"""Authoring curves as chord sequences on the identified 4g-gon.

The genus-g surface is the quotient of a convex 4g-gon with the side
word a b a' b' c d c' d' ...; a curve is given by the sides it crosses,
in order, and the chords between consecutive crossings are traced
through the fan diagonals to produce the curve's dual word.  The
triangulation fans out from vertex 0, so a chord's diagonals follow from
the two sides it joins alone: no coordinates are formed, and where a
chord meets a side does not matter.
"""

from __future__ import annotations

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
        out.append(curve_from_chords(tri, [4 * k]))
        out.append(curve_from_chords(tri, [4 * k + 1]))
    return out


def chain_connector(tri: Triangulation, k: int) -> CurveClass:
    """A curve joining handles k and k+1, crossing each of their a-curves once."""
    if not 0 <= k < tri.genus - 1:
        raise ValueError("no such adjacent handle pair")
    return curve_from_chords(tri, [4 * k + 1, 4 * k + 5])


def curve_from_chords(tri: Triangulation, sides) -> CurveClass:
    """Curve crossing the given polygon sides in order.

    After crossing side j the curve re-enters across partner_side(j) and
    runs straight to the next listed side.  The result is the
    directed-crossing word: one letter for the side crossing, then one
    per fan diagonal the chord meets.
    """
    word = []
    for idx, j in enumerate(sides):
        j2 = sides[(idx + 1) % len(sides)]
        word.extend(_chord_letters(tri.genus, partner_side(j), j2))
    return CurveClass.from_word(tri, word)
