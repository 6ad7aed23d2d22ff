"""Compression-body calculus over a fixed exterior surface.

The abstract side works purely with homeomorphism types: a compression body
is determined by the genus of its exterior boundary together with the
multiset of genera of its interior boundary components.  Heights, gluings,
minimal compressions and the separating/non-separating dichotomy are all
exact integer bookkeeping on those types.

The marked side (standard-form compressing systems, small bodies, meridian
tests, containment) lives further down and builds on the curve engine.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from cbgraph import MEMO_ENTRIES, cut, ops
from cbgraph.curves import CurveClass, json_field, json_record
from cbgraph.surface import standard_triangulation

MAX_CHAIN_HEIGHT = 12


class CBType:
    """Homeomorphism type: exterior genus plus interior boundary genera."""

    __slots__ = ("exterior_genus", "interior_genera")

    def __init__(self, exterior_genus: int, interior_genera: Iterable[int] = ()):
        interior = tuple(sorted(interior_genera))
        if exterior_genus < 1:
            raise ValueError("exterior genus must be >= 1")
        if any(g < 1 for g in interior):
            raise ValueError("interior genera must be >= 1 (spheres are capped)")
        if sum(interior) > exterior_genus:
            raise ValueError("interior genera exceed exterior genus")
        self.exterior_genus = exterior_genus
        self.interior_genera = interior

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CBType)
            and self.exterior_genus == other.exterior_genus
            and self.interior_genera == other.interior_genera
        )

    def __hash__(self) -> int:
        return hash((self.exterior_genus, self.interior_genera))

    def __repr__(self) -> str:
        inner = ",".join(map(str, self.interior_genera))
        return f"CB({self.exterior_genus};{inner})"

    def __lt__(self, other: "CBType") -> bool:
        return (self.exterior_genus, self.interior_genera) < (
            other.exterior_genus,
            other.interior_genera,
        )

    @property
    def is_trivial(self) -> bool:
        """The product exterior x [0,1]."""
        return self.interior_genera == (self.exterior_genus,)

    @property
    def is_handlebody(self) -> bool:
        """A handlebody: no interior boundary.  These are the paper's
        vertices of greatest height, 2g - 1, where every maximal chain
        of minimal compressions ends."""
        return not self.interior_genera

    def to_json(self) -> dict:
        return {"g": self.exterior_genus, "interior": list(self.interior_genera)}

    @classmethod
    def from_json(cls, data: dict | str) -> "CBType":
        data = json_record(data, "type", "g", "interior")
        g, interior = json_field(data, "type", "g", int, None), data["interior"]
        if type(interior) is not list or any(type(x) is not int for x in interior):
            raise ValueError(f"type interior must be a list of ints, not {interior!r}")
        return cls(g, interior)


def trivial_type(g: int) -> CBType:
    return CBType(g, (g,))


def height(t: CBType) -> int:
    """Length of every sequence of minimal compressions building t."""
    return (2 * t.exterior_genus - 1) - sum(2 * g - 1 for g in t.interior_genera)


def glue(c: CBType, comp_genus: int, d: CBType) -> CBType:
    """Glue d onto an interior boundary component of c of genus comp_genus.

    The component disappears and d's interior boundary takes its place;
    heights add.
    """
    if comp_genus not in c.interior_genera:
        raise ValueError(f"{c} has no interior component of genus {comp_genus}")
    if d.exterior_genus != comp_genus:
        raise ValueError(
            f"exterior genus {d.exterior_genus} does not match component {comp_genus}"
        )
    interior = list(c.interior_genera)
    interior.remove(comp_genus)
    interior.extend(d.interior_genera)
    return CBType(c.exterior_genus, interior)


def minimal_moves(t: CBType) -> set[CBType]:
    """Types reachable from t by gluing one minimal compression body.

    Gluing a solid torus deletes a torus component; gluing a separating
    small compression body splits a genus-f component into genera j, f-j.
    Every result has height(t) + 1.
    """
    out = set()
    for idx, f in enumerate(t.interior_genera):
        rest = t.interior_genera[:idx] + t.interior_genera[idx + 1 :]
        if f == 1:
            out.add(CBType(t.exterior_genus, rest))
        else:
            for j in range(1, f // 2 + 1):
                out.add(CBType(t.exterior_genus, rest + (j, f - j)))
    return out


def all_minimal_sequences(t: CBType) -> set[tuple[CBType, ...]]:
    """All chains of minimal compressions from the trivial type to t.

    Chains are returned without the trivial starting type; each has length
    height(t).  A chain to t is a chain to one of its predecessors
    followed by t, and only the trivial type has no predecessor.
    """
    h = height(t)
    if h > MAX_CHAIN_HEIGHT:
        raise ValueError(f"height {h} exceeds the enumeration guard {MAX_CHAIN_HEIGHT}")
    chains: dict[CBType, set[tuple[CBType, ...]]] = {}

    def to(cur: CBType) -> set[tuple[CBType, ...]]:
        if cur not in chains:
            preds = _predecessors(cur)
            chains[cur] = {c + (cur,) for p in preds for c in to(p)} if preds else {()}
        return chains[cur]

    return to(t)


def _predecessors(t: CBType) -> set[CBType]:
    """The types p with t in minimal_moves(p).

    Undoing the deletion of a torus component adds back a genus-1
    component, which fits while the interior genera sum to less than
    the exterior genus; undoing a split merges two components.
    """
    g, interior = t.exterior_genus, t.interior_genera
    out = set()
    if sum(interior) < g:
        out.add(CBType(g, interior + (1,)))
    for i, j in combinations(range(len(interior)), 2):
        rest = interior[:i] + interior[i + 1 : j] + interior[j + 1 :]
        out.add(CBType(g, rest + (interior[i] + interior[j],)))
    return out


def enumerate_types(g: int) -> list[CBType]:
    """All compression-body types with exterior genus g, sorted."""
    return sorted(
        CBType(g, p) for n in range(g + 1) for k in range(n + 1) for p in _partitions(n, k, g)
    )


def types_of_height(g: int, h: int) -> list[CBType]:
    """All types with exterior genus g and height h, sorted.

    A type with k interior components whose genera sum to n has height
    2g - 1 - 2n + k, so its interior genera are a partition of
    n = (2g - 1 - h + k) / 2 into exactly k parts.  One exists exactly
    when k <= n <= g, that is k <= 2g - 1 - h and k <= h + 1.
    """
    if g < 1:
        raise ValueError("exterior genus must be >= 1")
    return sorted(
        CBType(g, p)
        for k in range((h + 1) % 2, min(h + 1, 2 * g - 1 - h) + 1, 2)
        for p in _partitions((2 * g - 1 - h + k) // 2, k, g)
    )


def _partitions(n: int, k: int, top: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n >= k into exactly k parts of at most top, ascending."""
    if k == 0:
        if n == 0:
            yield ()
        return
    # The largest part is at least the mean, and leaves at least 1 for
    # each of the other k - 1 parts.
    for first in range(min(top, n - k + 1), -(-n // k) - 1, -1):
        for rest in _partitions(n - first, k - 1, first):
            yield rest + (first,)


def classify_short(g: int) -> dict[str, set[CBType]]:
    """The height-one and height-two types with exterior genus g >= 2."""
    if g < 2:
        raise ValueError("needs exterior genus >= 2")
    return {f"height{h}": set(types_of_height(g, h)) for h in (1, 2)}


def purely_separating(t: CBType) -> bool:
    """Whether every compressing system for t consists of separating curves.

    Holds exactly when the interior genera sum to the exterior genus.
    """
    return sum(t.interior_genera) == t.exterior_genus


def composable_pairs(gmax: int) -> Iterator[tuple[CBType, int, CBType]]:
    """All (c, component genus, d) triples gluable at exterior genus <= gmax."""
    for g in range(1, gmax + 1):
        for c in enumerate_types(g):
            for f in sorted(set(c.interior_genera)):
                for d in enumerate_types(f):
                    yield c, f, d


# ---------------------------------------------------------------------------
# Marked compression bodies over a fixed triangulated surface.


class Containment(Enum):
    """Tri-state answer of the certified containment fragment."""

    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"


@lru_cache(maxsize=MEMO_ENTRIES)
def _placement(tri, ordered: tuple, a) -> tuple[bool, bool]:
    """How the curve a sits in the capped surface compressed along `ordered`.

    Returns (eligible, repairable): `eligible` when compressing a adds
    exactly one to the height (essential in a torus component, or
    separating a capped component into two positive-genus pieces),
    `repairable` when the standard-form repair (inserting a
    punctured-torus boundary around a) applies.  Memoised per process on
    the ordered system and a.
    """
    union = cut.disjoint_union(ordered + (a,))
    cc = cut.CutComplex(tri, union)
    rp, rm = cc.sides_of(a)
    if rp != rm:
        return cc.region_genus(rp) >= 1 and cc.region_genus(rm) >= 1, False
    # Regluing a returns its capped component, of genus one more than
    # the cut region's.
    g_comp = cc.region_genus(rp) + 1
    return g_comp == 1, g_comp >= 2


class MarkedCB:
    """A compression body given by a standard-form compressing system.

    The input curves are reordered, and punctured-torus boundaries are
    inserted where needed, so that each system curve compresses its
    component of the previously compressed surface by exactly one
    height step; the system length then equals the height of the
    derived type.
    """

    __slots__ = ("tri", "system", "derived_type", "small_base")

    def __init__(self, tri, system, small_base=None):
        self.tri = tri
        curves = sorted(set(system))
        for c in curves:
            if not c.is_connected:
                raise ValueError("system curves must be connected")
            if c.tri != tri:
                raise ValueError("system curve on a different triangulation")
        cut.disjoint_union(curves)

        ordered: list = []
        remaining = list(curves)
        rounds = 0
        while remaining:
            rounds += 1
            if rounds > 4 * len(curves) + 8:
                raise RuntimeError("standard form ordering did not stabilize")
            key = tuple(ordered)
            a = next((a for a in remaining if _placement(tri, key, a)[0]), None)
            if a is not None:
                ordered.append(a)
                remaining.remove(a)
                continue
            for a in remaining:
                if not _placement(tri, key, a)[1]:
                    continue
                others = ordered + [x for x in remaining if x != a]
                try:
                    d = cut.dual_curve(a, others)
                except ValueError:
                    continue
                b = ops.band_sum(a, d)
                if b in ordered or b in remaining:
                    continue
                if any(ops.intersect(b, x) != 0 for x in others + [a]):
                    continue
                remaining.insert(0, b)
                break
            else:
                raise ValueError("system admits no standard-form ordering")

        self.system = tuple(ordered)
        profile = cut.cut_profile(tri, ordered)
        interior = [h for h, _ in profile if h >= 1]
        self.derived_type = CBType(tri.genus, interior)
        if height(self.derived_type) != len(self.system):
            raise RuntimeError("standard form length disagrees with height")
        self.small_base = small_base

    @property
    def height(self) -> int:
        return height(self.derived_type)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MarkedCB)
            and self.tri == other.tri
            and set(self.system) == set(other.system)
        )

    def __hash__(self) -> int:
        return hash((self.tri.checksum, frozenset(self.system)))

    def __repr__(self) -> str:
        return f"MarkedCB(type={self.derived_type!r}, |system|={len(self.system)})"

    def to_json(self) -> dict:
        data = {
            "system": [c.to_json() for c in self.system],
            "type": self.derived_type.to_json(),
        }
        if self.small_base is not None:
            data["small_base"] = self.small_base.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict | str) -> "MarkedCB":
        data = json_record(data, "body", "type", "system")
        kind = CBType.from_json(data["type"])
        system = json_field(data, "body", "system", list, None)
        tri = standard_triangulation(kind.exterior_genus)
        curves = [CurveClass.from_json(c) for c in system]
        base = data.get("small_base")
        got = cls(
            tri,
            curves,
            small_base=CurveClass.from_json(base) if base else None,
        )
        if got.derived_type != kind:
            raise ValueError("serialized type disagrees with the system")
        return got


def small_cb(a) -> MarkedCB:
    """The small compression body obtained by compressing the single curve a.

    Memoised per process, so equal curves get the same body; a MarkedCB
    is value-typed and never written after construction.
    """
    if not a.is_connected:
        raise ValueError("small compression body needs a connected curve")
    return _small_cb(a)


@lru_cache(maxsize=MEMO_ENTRIES)
def _small_cb(a) -> MarkedCB:
    return MarkedCB(a.tri, [a], small_base=a)


def meridian_of_small(a, c) -> bool:
    """Whether c bounds a disk in the small compression body of a.

    For separating a only a itself does; for nonseparating a the
    meridians are a and the boundaries of embedded punctured tori
    containing a.

    Such a boundary c is separating and disjoint from a, so a lies on
    one side of c, and c is a meridian exactly when that side is a
    punctured torus.  With no genus-1 side the answer is no, and at
    genus 2 both sides are punctured tori.  Otherwise exactly one side
    T is, and alpha is a nonseparating curve inside it.  The two sides
    of c split H1(S) into summands orthogonal for the intersection
    pairing, so a curve on the far side has algebraic intersection 0
    with alpha.  A nonseparating curve inside T other than alpha has
    another slope there, and distinct slopes in a punctured torus have
    nonzero algebraic intersection (Farb-Margalit, A Primer on Mapping
    Class Groups).  So a lies in T exactly when it is alpha or pairs
    nonzero with it.
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
    cc = cut.CutComplex(a.tri, c)
    tori = [r for r in cc.chi if cc.region_genus(r) == 1]
    if not tori:
        return False
    if len(tori) == 2:
        return True
    alpha = cc.nonseparating_in_region(tori[0])
    return a == alpha or ops.algebraic_intersect(a, alpha) != 0


def contains(c: MarkedCB, d: MarkedCB) -> Containment:
    """Certified containment of compression bodies: is c inside d?

    TRUE when every system curve of c is a certified meridian of d
    (subset of d's system, or the complete small-body meridian rule);
    FALSE when d is small and some curve of c's system is certifiably
    not a meridian; UNDECIDED otherwise.
    """
    if c.tri != d.tri:
        raise ValueError("bodies live over different triangulations")
    if set(c.system) <= set(d.system):
        return Containment.TRUE
    if not d.system:
        # The trivial body has no meridians at all.
        return Containment.FALSE
    if d.small_base is not None:
        if all(meridian_of_small(d.small_base, x) for x in c.system):
            return Containment.TRUE
        return Containment.FALSE
    return Containment.UNDECIDED
