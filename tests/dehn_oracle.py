"""Dehn's algorithm for the surface group, kept as a test oracle.

Free homotopy data is read off a drawing as the sequence of polygon
sides a path crosses, with signs (`path_word`).  The surface group
presentation has one relator: the boundary word of the 4g-gon,
extracted here as the side crossings of the vertex-linking curve.  The
relator is C'(1/8) small cancellation (length 4g, pieces of length 1),
so Dehn's greedy shortening decides triviality of any word, simple or
not.  `cbgraph.dehn.is_trivial` decides only simple dual loops, by free
reduction against the vertex link; this module is the independent
answer it is checked against.

Any order of replacements decides.  A replacement swaps a cyclic factor
longer than half a relator for the inverse of the shorter rest, so it
keeps the conjugacy class and shortens the word.  By Greendlinger's
lemma (Lyndon–Schupp, Combinatorial Group Theory, Ch. V), every
nonempty cyclically reduced word that is trivial in a C'(1/6) group has
a cyclic factor longer than half a relator, so the shortening reaches
the empty word from a trivial word whichever factor each step replaces,
and never from a nontrivial one.

Two forms of the shortening are kept, and they must agree on every
word: `is_trivial` looks up each (2g + 1)-letter window of the doubled
word in `_pieces`, and `window_scan_is_trivial` tries every relator
rotation at every cyclic position, building one tuple per window.

A factor longer than half of some rotation r of the relator or its
inverse starts with the first 2g + 1 letters of r, so `_pieces` maps
those prefixes to the inverse of the rest of r.  The prefixes are
distinct: two rotations that shared a prefix of two or more letters
would have a piece of that length, and pieces have length 1.

Letters are nonzero ints: +e / -e+... encoded as (e + 1) and -(e + 1)
for side edge e, so inversion is negation.  `loop_is_trivial` takes a
dual loop as encoded text, as `cbgraph.dehn.is_trivial` does, and the
reductions are the tuple forms of `tuple_words`.
"""

from __future__ import annotations

from functools import lru_cache

from tuple_words import cyclic_reduce, free_reduce

from cbgraph.kernel import decode
from cbgraph.surface import Triangulation, standard_triangulation


@lru_cache(maxsize=None)
def _letters(tri: Triangulation) -> tuple[int, ...]:
    """Generator letter of each directed crossing, 0 for a diagonal.

    Positive direction of side edge e is entering via its first listed
    incidence, so the sign of a side letter is read from `first`.
    """
    out = []
    for lam, e in enumerate(tri.side_edge):
        if e >= 2 * tri.genus:
            out.append(0)
        else:
            out.append((e + 1) if tri.first[lam] else -(e + 1))
    return tuple(out)


def path_word(tri: Triangulation, lams) -> tuple[int, ...]:
    """Side-generator word of a path given by directed crossings."""
    letters = _letters(tri)
    return free_reduce(
        [x for x in map(letters.__getitem__, lams) if x], _inverse(tri.genus)
    )


@lru_cache(maxsize=None)
def _inverse(genus: int) -> dict[int, int]:
    # Inversion of the side letters, as the kernel's `mate` table.
    return {x: -x for e in range(1, 2 * genus + 1) for x in (e, -e)}


@lru_cache(maxsize=None)
def _relators(genus: int) -> tuple[tuple[int, ...], ...]:
    tri = standard_triangulation(genus)
    r = path_word(tri, tri.vertex_link)
    if len(r) != 4 * genus:
        raise RuntimeError("vertex link does not give the polygon relator")
    rots = set()
    for base in (r, tuple(-x for x in reversed(r))):
        for i in range(len(base)):
            rots.add(base[i:] + base[:i])
    return tuple(rots)


@lru_cache(maxsize=None)
def _pieces(genus: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """First 2g + 1 letters of each relator rotation -> inverse of its rest."""
    k = 2 * genus + 1
    rots = _relators(genus)
    pieces = {rel[:k]: tuple(-x for x in reversed(rel[k:])) for rel in rots}
    if len(pieces) != len(rots):
        raise RuntimeError("relator rotations share a prefix longer than a piece")
    return pieces


def is_trivial(genus: int, word) -> bool:
    """Whether a side-generator word is null-homotopic (Dehn's algorithm).

    Each step replaces the first cyclic factor, by start position, that
    is more than half a relator; see the module docstring for why the
    order does not change the answer.
    """
    k = 2 * genus + 1
    get = _pieces(genus).get
    inverse = _inverse(genus)
    w = cyclic_reduce(word, inverse)
    while w:
        n = len(w)
        if n < k:
            # Too short to contain more than half a relator: nontrivial.
            return False
        ww = w + w
        for i in range(n):
            rest = get(ww[i : i + k])
            if rest is not None:
                w = cyclic_reduce(ww[i + k : i + n] + rest, inverse)
                break
        else:
            return False
    return True


def loop_is_trivial(tri: Triangulation, loop: str) -> bool:
    """Whether a closed dual path, encoded as text, is null-homotopic on
    the surface."""
    return is_trivial(tri.genus, path_word(tri, decode(loop)))


def window_scan_is_trivial(genus: int, word) -> bool:
    """Whether a side-generator word is null-homotopic, by scanning
    every relator rotation at every position."""
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
