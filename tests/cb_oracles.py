"""Compression-body oracles.

The BFS level scan is shared with the suite runner.  The pruned
depth-first search for chains and the type enumeration by partitions
of every total are the code that `cb` replaced by direct constructions
(`all_minimal_sequences` over predecessors, `enumerate_types` and
`types_of_height` over partitions into a given number of parts); they
are kept here unchanged as the reference.
"""

from __future__ import annotations

from typing import Iterator

from cbgraph.cb import MAX_CHAIN_HEIGHT, CBType, height, minimal_moves, trivial_type
from cbgraph.oracles import bfs_height, scan_types_by_height  # noqa: F401


def search_minimal_sequences(t: CBType) -> set[tuple[CBType, ...]]:
    """All chains of minimal compressions from the trivial type to t.

    Chains are returned without the trivial starting type; each has length
    height(t).
    """
    h = height(t)
    if h > MAX_CHAIN_HEIGHT:
        raise ValueError(f"height {h} exceeds the enumeration guard {MAX_CHAIN_HEIGHT}")
    start = trivial_type(t.exterior_genus)
    chains: set[tuple[CBType, ...]] = set()

    def extend(cur: CBType, chain: tuple[CBType, ...]) -> None:
        if cur == t:
            chains.add(chain)
            return
        if height(cur) >= h:
            return
        for nxt in minimal_moves(cur):
            if _could_reach(nxt, t):
                extend(nxt, chain + (nxt,))

    extend(start, ())
    return chains


def _could_reach(c: CBType, t: CBType) -> bool:
    # c can still be compressed down to t: t's interior genera must be
    # obtainable by iterated splitting/deletion from c's.
    return _refines(c.interior_genera, t.interior_genera)


def _refines(src: tuple[int, ...], dst: tuple[int, ...]) -> bool:
    # Can dst be reached from src by replacing f with j, f-j and deleting 1s?
    if not src:
        return not dst
    if sum(src) < sum(dst):
        return False
    # Match the largest source genus: it is either kept, split, or (if 1)
    # deleted.  Exhaustive branching is fine at desk scale.
    f = src[-1]
    rest = src[:-1]
    if f in dst:
        i = dst.index(f)
        if _refines(rest, dst[:i] + dst[i + 1 :]):
            return True
    if f == 1:
        return _refines(rest, dst)
    for j in range(1, f // 2 + 1):
        merged = tuple(sorted(rest + (j, f - j)))
        if _refines(merged, dst):
            return True
    return False


def enumerate_types(g: int) -> list[CBType]:
    """All compression-body types with exterior genus g, sorted."""
    return sorted(
        CBType(g, part) for total in range(0, g + 1) for part in _partitions(total)
    )


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _partitions(n - first, first):
            yield rest + (first,)
