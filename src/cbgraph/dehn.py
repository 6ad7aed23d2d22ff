"""Word problem for the fundamental group of the closed surface.

Free homotopy data is read off a drawing as the sequence of polygon
sides a path crosses, with signs.  The surface group presentation has
one relator: the boundary word of the 4g-gon, extracted here as the
side crossings of the vertex-linking curve.  The relator is C'(1/8)
small cancellation (length 4g, pieces of length 1), so Dehn's greedy
shortening decides triviality.

Letters are nonzero ints: +e / -e+... encoded as (e + 1) and -(e + 1)
for side edge e, so inversion is negation.
"""

from __future__ import annotations

from functools import lru_cache

from cbgraph.kernel import cyclic_reduce, free_reduce
from cbgraph.surface import Triangulation


def side_letter(tri: Triangulation, lam: int) -> int | None:
    """Generator letter for a directed crossing, or None for a diagonal.

    Positive direction of side edge e is entering via its first listed
    incidence.
    """
    e = tri.side_edge[lam]
    if e >= 2 * tri.genus:
        return None
    t, s = tri.side_of(lam)
    return (e + 1) if tri.sides[e][0] == (t, s) else -(e + 1)


def path_word(tri: Triangulation, lams) -> tuple[int, ...]:
    """Side-generator word of a path given by directed crossings."""
    out = []
    for lam in lams:
        x = side_letter(tri, lam)
        if x is not None:
            out.append(x)
    return free_reduce(out, _inverse(tri.genus))


@lru_cache(maxsize=None)
def _inverse(genus: int) -> dict[int, int]:
    # Inversion of the side letters, as the kernel's `mate` table.
    return {x: -x for e in range(1, 2 * genus + 1) for x in (e, -e)}


@lru_cache(maxsize=None)
def _relators(genus: int) -> tuple[tuple[int, ...], ...]:
    tri = Triangulation(genus)
    r = path_word(tri, tri.vertex_link)
    if len(r) != 4 * genus:
        raise RuntimeError("vertex link does not give the polygon relator")
    rots = set()
    for base in (r, tuple(-x for x in reversed(r))):
        for i in range(len(base)):
            rots.add(base[i:] + base[:i])
    return tuple(rots)


def is_trivial(genus: int, word) -> bool:
    """Whether a side-generator word is null-homotopic (Dehn's algorithm)."""
    half = 2 * genus
    rots = _relators(genus)
    inverse = _inverse(genus)
    w = cyclic_reduce(word, inverse)
    while w:
        n = len(w)
        if n < half + 1:
            # Too short to contain more than half a relator: nontrivial.
            return False
        replaced = False
        # Look for a factor longer than half a relator and shorten.
        for rel in rots:
            piece = rel[: half + 1]
            for i in range(n):
                if tuple(w[(i + k) % n] for k in range(half + 1)) == piece:
                    rest = tuple(-x for x in reversed(rel[half + 1 :]))
                    w = cyclic_reduce(
                        tuple(w[(i + half + 1 + k) % n] for k in range(n - half - 1))
                        + rest,
                        inverse,
                    )
                    replaced = True
                    break
            if replaced:
                break
        if not replaced:
            return False
    return True
