"""Reference searches for the exact clique and chromatic numbers.

`clique_number` lists every clique once, in increasing vertex order,
with no bound.  `chromatic_number` is the per-k decision search that
`cbgraph.complexes` ran before its DSATUR branch and bound: for k from
the clique number up, backtrack over the vertices in decreasing degree,
allowing at most one fresh colour per vertex.  Graphs are `(n, edges)`
pairs, as `complexes.induced` returns them.
"""

from __future__ import annotations

import random
from itertools import combinations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def clique_number(g) -> int:
    n, edges = g
    adj = adjacency(n, edges)

    def largest(size, candidates):
        # Each clique is reached once, from its vertices in increasing order.
        return max(
            [size]
            + [largest(size + 1, {u for u in candidates & adj[v] if u > v}) for v in candidates]
        )

    return largest(0, set(range(n)))


def chromatic_number(g) -> int:
    n, edges = g
    adj = adjacency(n, edges)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def colorable(k: int) -> bool:
        colors = {}

        def assign(pos: int) -> bool:
            if pos == n:
                return True
            v = order[pos]
            used = {colors[u] for u in adj[v] if u in colors}
            # Break color symmetry: allow one fresh color at most.
            fresh_done = False
            for c in range(k):
                if c in used:
                    continue
                is_fresh = c not in colors.values()
                if is_fresh and fresh_done:
                    break
                if is_fresh:
                    fresh_done = True
                colors[v] = c
                if assign(pos + 1):
                    return True
                del colors[v]
            return False

        return assign(0)

    k = max(clique_number(g), 1)
    while not colorable(k):
        k += 1
    return k


def labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, {p for k, p in enumerate(pairs) if mask >> k & 1}


def random_graphs(seed: int, count: int, max_n: int):
    """`count` seeded G(n, p) graphs, n from 1 to max_n and p from 0.1 to 0.9."""
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.randint(1, max_n), rng.uniform(0.1, 0.9)
        yield n, {e for e in combinations(range(n), 2) if rng.random() < p}


def mycielski(steps: int):
    """The Mycielski graph reached from K2 in `steps` constructions: 5,
    11, 23, 47 vertices, triangle-free, chromatic number steps + 2."""
    n, edges = 2, {(0, 1)}
    for _ in range(steps):
        # Vertex i gets a shadow n + i joined to the neighbours of i,
        # and every shadow is joined to the apex 2n.
        edges = edges | {(i, n + j) for i, j in edges} | {(j, n + i) for i, j in edges}
        edges |= {(n + i, 2 * n) for i in range(n)}
        n = 2 * n + 1
    return n, edges
