"""Finite fragments of the compression-body graph and torus complexes.

A fragment stores explicit vertices (marked compression bodies or
curves), its edges, and for torus complexes the simplices up to a
dimension bound, together with the provenance that regenerates it.
Compression-body fragments only admit vertex sets on which containment
is decidable in both directions, so the fragment is exactly the induced
subgraph, never an approximation.

Each fragment builds its adjacency `adj` once, per vertex the frozenset
of its neighbours, and every graph query reads it.  Clique and chromatic
numbers are exact: branch and bound, and one DSATUR search (D. Brélaz,
CACM 22, 1979) from the clique lower bound, behind one size guard.
"""

from __future__ import annotations

from itertools import combinations

from cbgraph import ops
from cbgraph.cb import Containment, MarkedCB, contains
from cbgraph.curves import CurveClass, json_field, json_record

MAX_EXACT_VERTICES = 64


class ComplexFragment:
    """An explicit finite piece of one of the curve-based complexes."""

    __slots__ = ("kind", "vertices", "edges", "simplices", "provenance", "adj")

    def __init__(self, kind, vertices, edges, simplices=(), provenance=None):
        self.kind = kind
        self.vertices = tuple(vertices)
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        self.simplices = tuple(sorted(tuple(sorted(s)) for s in simplices))
        self.provenance = dict(provenance or {})
        self.adj = _adjacency(len(self.vertices), self.edges)

    def __len__(self):
        return len(self.vertices)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def neighbors(self, i: int) -> list[int]:
        return sorted(self.adj[i])

    def __repr__(self):
        return (
            f"ComplexFragment(kind={self.kind!r}, n={len(self.vertices)}, "
            f"edges={len(self.edges)})"
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": [v.to_json() for v in self.vertices],
            "edges": sorted(list(e) for e in self.edges),
            "simplices": [list(s) for s in self.simplices],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "ComplexFragment":
        """The fragment of a record, its graph taken as given: edge and
        simplex indices are checked, but not re-derived from the vertices."""
        data = json_record(data, "fragment", "kind", "vertices", "edges", "simplices")
        vertices = json_field(data, "fragment", "vertices", list, None)
        return cls(
            data["kind"],
            [(MarkedCB if data["kind"] == "cb" else CurveClass).from_json(v) for v in vertices],
            _index_sets(data, "edges", len(vertices), 2),
            _index_sets(data, "simplices", len(vertices)),
            json_field(data, "fragment", "provenance", dict, {}),
        )

    def to_dot(self) -> str:
        lines = [f'graph "{self.kind}" {{']
        for i, v in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{v!r}"];')
        for i, j in sorted(self.edges):
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines)


def _index_sets(data, key, n, size=None) -> list[tuple[int, ...]]:
    """data[key] as tuples of distinct vertex indices below n, `size` each if given."""
    sets = data[key]
    if type(sets) is not list or not all(
        type(s) is list
        and all(type(i) is int and 0 <= i < n for i in s)
        and len(set(s)) == len(s) == (size or len(s))
        for s in sets
    ):
        raise ValueError(f"fragment {key} must be lists of distinct vertex indices, not {sets!r}")
    return [tuple(s) for s in sets]


def build_cb_fragment(bodies, provenance=None) -> ComplexFragment:
    """Induced subgraph of the compression-body graph on the given bodies.

    Fails listing the offending pair if any containment query is
    undecided: approximate fragments are never produced.
    """
    bodies = list(dict.fromkeys(bodies))
    for b in bodies:
        if b.derived_type.is_trivial:
            raise ValueError("the trivial body is not a vertex of the graph")
    edges = []
    for (i, u), (j, v) in combinations(enumerate(bodies), 2):
        fwd = contains(u, v)
        # Containment is strict, so a TRUE settles the other direction.
        bwd = fwd if fwd is Containment.TRUE else contains(v, u)
        if Containment.TRUE in (fwd, bwd):
            edges.append((i, j))
        elif Containment.UNDECIDED in (fwd, bwd):
            raise ValueError(
                f"containment undecided between vertices {i} and {j}: "
                f"{_named(u)} vs {_named(v)}"
            )
    return ComplexFragment("cb", bodies, edges, provenance=provenance)


def _named(body) -> str:
    """A body by its type and its system's weights, which tell apart
    bodies of one type and system size."""
    weights = [list(c.weights) for c in body.system]
    return f"{body.derived_type!r} with system weights {weights}"


def links(f: ComplexFragment, i: int) -> dict:
    """Uplink (strictly containing) and downlink (strictly contained) of vertex i.

    Containment raises the height, so a neighbour is asked only the
    direction its height allows.
    """
    if f.kind != "cb":
        raise ValueError("links are defined on compression-body fragments")
    u = f.vertices[i]
    up, down = [], []
    for j in f.neighbors(i):
        w = f.vertices[j]
        if w.height >= u.height and contains(u, w) is Containment.TRUE:
            up.append(j)
        elif w.height <= u.height and contains(w, u) is Containment.TRUE:
            down.append(j)
        else:
            raise RuntimeError("fragment edge without a containment direction")
    return {"up": up, "down": down}


def is_join(f: ComplexFragment, part_a, part_b) -> bool:
    """Whether the two parts span a join: every cross pair is an edge."""
    return all(f.adj[i].issuperset(part_b) for i in part_a)


def induced(f: ComplexFragment, indices) -> tuple[int, frozenset]:
    """Plain (n, edges) graph induced on the given vertex indices."""
    pos = {v: k for k, v in enumerate(indices)}
    edges = frozenset(
        (pos[i], pos[j]) for i in pos for j in f.adj[i] if j in pos and pos[i] < pos[j]
    )
    return len(pos), edges


def _adjacency(n: int, edges) -> tuple[frozenset[int], ...]:
    """Per vertex below n, the frozenset of its neighbours."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(map(frozenset, adj))


def _as_graph(g) -> tuple[frozenset[int], ...]:
    """The adjacency of a fragment or an (n, edges) pair, within the exact bound."""
    n = len(g.vertices) if isinstance(g, ComplexFragment) else g[0]
    if n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"graph exceeds MAX_EXACT_VERTICES = {MAX_EXACT_VERTICES}: it has {n} vertices"
        )
    return g.adj if isinstance(g, ComplexFragment) else _adjacency(*g)


def clique_number(g) -> int:
    """Exact maximum clique size via branch and bound."""
    return _clique(_as_graph(g))


def _clique(adj) -> int:
    best = 0

    def grow(size, candidates):
        nonlocal best
        best = max(best, size)
        if size + len(candidates) <= best:
            return
        for v in sorted(candidates, key=lambda v: -len(adj[v] & candidates)):
            grow(size + 1, candidates & adj[v])
            candidates = candidates - {v}
            if size + len(candidates) <= best:
                return

    grow(0, set(range(len(adj))))
    return best


def chromatic_number(g) -> int:
    """Exact chromatic number by DSATUR branch and bound: the uncoloured
    vertex seeing the most colours (then of largest degree) takes each
    colour its neighbours lack, or a new one below the best colouring so
    far, until a colouring meets the clique number."""
    adj = _as_graph(g)
    n = len(adj)
    lower = _clique(adj)
    best = n
    colour = {}

    def seen(v):
        return {colour[u] for u in adj[v] if u in colour}

    def search(used):
        nonlocal best
        if len(colour) == n:
            best = used
            return
        left = (u for u in range(n) if u not in colour)
        v = max(left, key=lambda u: (len(seen(u)), len(adj[u])))
        taken = seen(v)
        for c in range(used + 1):
            if max(used, c + 1) >= best or best == lower:
                break
            if c not in taken:
                colour[v] = c
                search(max(used, c + 1))
                del colour[v]

    search(0)
    return best


def build_tc_fragment(curves, max_dim: int = 3, provenance=None) -> ComplexFragment:
    """Torus-complex fragment: simplices span sets sharing a punctured torus."""
    curves = list(dict.fromkeys(curves))
    for c in curves:
        if not c.is_connected:
            raise ValueError("torus complex vertices must be connected curves")
        if c.is_separating:
            raise ValueError("torus complex vertices must be nonseparating")
    edges = []
    for i, j in combinations(range(len(curves)), 2):
        if ops.common_punctured_torus([curves[i], curves[j]]):
            edges.append((i, j))
    adj = _adjacency(len(curves), edges)
    simplices = [
        combo
        for size in range(3, max_dim + 2)
        for combo in combinations(range(len(curves)), size)
        if all(j in adj[i] for i, j in combinations(combo, 2))
        and ops.common_punctured_torus([curves[k] for k in combo])
    ]
    return ComplexFragment("tc", curves, edges, simplices, provenance)


def empty_triangles(f: ComplexFragment) -> set[tuple[int, int, int]]:
    """Pairwise-adjacent triples that do not span a 2-simplex."""
    if f.kind != "tc":
        raise ValueError("empty triangles live in torus-complex fragments")
    filled = {s for s in f.simplices if len(s) == 3}
    return {
        (i, j, k)
        for i, j in f.edges
        for k in f.adj[i] & f.adj[j]
        if k > j and (i, j, k) not in filled
    }


def empty_triangle_family(a, b, d, powers) -> list[tuple]:
    """Empty triangles (a, b, twist(a, d, n)) from a handle-mixing twister.

    Requires i(a, b) = 1, i(a, d) = 1, i(b, d) = 0 with d not parallel
    to b; each power then yields a triple that is pairwise contained in
    punctured tori but shares none.
    """
    if ops.intersect(a, b) != 1 or ops.intersect(a, d) != 1:
        raise ValueError("family needs i(a,b) = i(a,d) = 1")
    if ops.intersect(b, d) != 0 or d == b:
        raise ValueError("family needs d disjoint from and not parallel to b")
    out = []
    for n in powers:
        if n == 0:
            raise ValueError("powers must be nonzero")
        c = ops.twist(a, d, n)
        triple = (a, b, c)
        if not all(
            ops.common_punctured_torus(list(p)) for p in combinations(triple, 2)
        ):
            raise RuntimeError("family member lost a torus edge")
        if ops.common_punctured_torus(list(triple)):
            raise RuntimeError("family member spans a filled triangle")
        out.append(triple)
    return out


def verify_prop_intersection(f: ComplexFragment) -> dict:
    """At most one edge of every empty triangle intersects more than once."""
    triangles = sorted(empty_triangles(f))
    violations = []
    for tri in triangles:
        big = [
            (i, j)
            for i, j in combinations(tri, 2)
            if ops.intersect(f.vertices[i], f.vertices[j]) > 1
        ]
        if len(big) > 1:
            violations.append({"triangle": list(tri), "edges": big})
    return {
        "empty_triangles": len(triangles),
        "violations": violations,
        "ok": not violations,
    }


def schmutz_adjacent(a: CurveClass, b: CurveClass) -> bool:
    """Adjacency in the Schmutz graph: nonseparating curves meeting once."""
    for c in (a, b):
        if not c.is_connected or c.is_separating:
            raise ValueError("Schmutz graph vertices are nonseparating curves")
    return ops.intersect(a, b) == 1


def build_schmutz_fragment(curves, provenance=None) -> ComplexFragment:
    curves = list(dict.fromkeys(curves))
    edges = [
        (i, j)
        for i, j in combinations(range(len(curves)), 2)
        if schmutz_adjacent(curves[i], curves[j])
    ]
    return ComplexFragment("schmutz", curves, edges, provenance=provenance)


def height_coloring_is_proper(f: ComplexFragment) -> bool:
    """Heights color compression-body fragments properly (containment is strict)."""
    return all(
        f.vertices[i].height != f.vertices[j].height for i, j in f.edges
    )


def is_comparability(f: ComplexFragment) -> bool:
    """Whether orienting edges by height gives a transitive orientation.

    The paper's CB(S) joins two bodies when one contains the other, so
    it is the comparability graph of containment; containment raises
    the height, and a fragment of CB(S) must pass.
    """
    if not height_coloring_is_proper(f):
        return False
    heights = [v.height for v in f.vertices]
    for j, around in enumerate(f.adj):
        higher = [k for k in around if heights[k] > heights[j]]
        if not all(f.adj[i].issuperset(higher) for i in around if heights[i] < heights[j]):
            return False
    return True
