"""Fixed one-vertex triangulations of closed orientable surfaces.

The genus-g surface is modelled as a 4g-gon with the side identification
a b a' b' c d c' d' ..., fan-triangulated by diagonals from vertex 0.  All
4g corners map to a single vertex, giving 4g - 2 triangles and 6g - 3
edges.  Curves are stored elsewhere as sequences of edges crossed; this
module only provides the combinatorics: triangle/edge incidences, the
turn tables around the vertex, and the vertex-linking word.

Each triangulation is fingerprinted by the first 16 hex digits of the
SHA-256 of its sorted JSON, computed here in pure Python (FIPS 180-4)
rather than by `hashlib`.  Importing `hashlib` loads OpenSSL's libcrypto:
3.6 MB of resident memory, about 15 % of a `perfbench` run's peak, and
about 3 ms, all to hash a payload of 93-203 bytes once per genus at
genus 2-4.  Measured with Python 3.11 on a shared 2-CPU machine, the pure
digest takes 0.4-0.8 ms there (2-4 blocks of 64 bytes, about 1 us with
`hashlib`) and about 10 ms for the 4.5 KB payload of genus 70.  The C
fallbacks inside `hashlib` (`_sha256`, `_sha2`) are private and absent
from FIPS builds, so using them would need `hashlib` as a third path.
`standard_triangulation` memoises, so each genus is digested once per
process.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

_ASSET_DIR = Path(__file__).parent / "assets"


# SHA-256 constants (FIPS 180-4, 4.2.2 and 5.3.3): the first 32 bits of
# the fractional parts of the cube roots of the first 64 primes, and of
# the square roots of the first 8.
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def _sha256(data: bytes) -> str:
    """Hex SHA-256 digest of `data` (FIPS 180-4, section 6.2).

    Rotations leave bits above bit 31, which only the masked sums clear;
    every word fed back into a rotation is masked first.
    """
    m = 0xFFFFFFFF
    n = len(data)
    data += b"\x80" + bytes(-(n + 9) % 64) + (8 * n).to_bytes(8, "big")
    state = _H0
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i : i + 4], "big") for i in range(block, block + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3)
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & m)
        a, b, c, d, e, f, g, h = state
        for kt, wt in zip(_K, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = h + s1 + ((e & f) ^ (~e & g)) + kt + wt
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + ((a & b) ^ (a & c) ^ (b & c))
            a, b, c, d, e, f, g, h = (t1 + t2) & m, a, b, c, (d + t1) & m, e, f, g
        state = tuple((x + y) & m for x, y in zip(state, (a, b, c, d, e, f, g, h)))
    return "".join(f"{x:08x}" for x in state)


class Triangulation:
    """One-vertex triangulation of the closed genus-g surface.

    Edges 0..2g-1 are the identified polygon side pairs, edges 2g..6g-4
    the fan diagonals.  Each triangle is a triple of edge ids in ccw
    order; `sides[e]` gives the two (triangle, slot) incidences of edge e.
    Gluings always reverse the slot parameter (param x in one frame is
    1 - x in the other).

    Every layer reads its turn tables: for the letter x = 3t + s, `back[x]`
    and `ahead[x]` are the letters leaving t through sides s - 1 and s + 1,
    and `first[x]` says whether (t, s) is the first listed incidence of its
    edge.  `ahead`, a rotation in a triangle followed by `mate`, is a
    permutation; its orbit through mate[0] is `vertex_link`.
    """

    __slots__ = (
        "genus",
        "triangles",
        "sides",
        "mate",
        "side_edge",
        "back",
        "ahead",
        "first",
        "vertex_link",
        "checksum",
    )

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("genus must be >= 2")
        self.genus = genus
        n = 4 * genus

        # Polygon side j -> edge id, pattern a b a' b' per handle.
        def side_edge(j: int) -> int:
            k, r = divmod(j, 4)
            return 2 * k + (r % 2)

        # Diagonal from vertex 0 to vertex v (2 <= v <= n-2) -> edge id.
        def diag_edge(v: int) -> int:
            return 2 * genus + (v - 2)

        triangles = []
        for i in range(n - 2):
            a = side_edge(0) if i == 0 else diag_edge(i + 1)
            b = side_edge(i + 1)
            c = side_edge(n - 1) if i == n - 3 else diag_edge(i + 2)
            triangles.append((a, b, c))
        self.triangles = tuple(triangles)

        sides: dict[int, list[tuple[int, int]]] = {}
        for t, tri in enumerate(self.triangles):
            for slot, e in enumerate(tri):
                sides.setdefault(e, []).append((t, slot))
        if any(len(v) != 2 for v in sides.values()):
            raise RuntimeError("bad gluing: every edge needs two sides")
        self.sides = {e: tuple(v) for e, v in sides.items()}

        # Directed-crossing letters: letter 3t + s means "cross the edge at
        # slot s of triangle t, entering t".  The mate letter is the same
        # crossing traversed backwards.
        mate = []
        side_edge = []
        for t in range(self.num_triangles):
            for s in range(3):
                t2, s2 = self.opposite(t, s)
                mate.append(3 * t2 + s2)
                side_edge.append(self.triangles[t][s])
        self.mate = tuple(mate)
        self.side_edge = tuple(side_edge)
        letters = range(len(mate))
        self.back = tuple(mate[x - x % 3 + (x - 1) % 3] for x in letters)
        self.ahead = tuple(mate[x - x % 3 + (x + 1) % 3] for x in letters)
        self.first = tuple(self.sides[self.side_edge[x]][0] == divmod(x, 3) for x in letters)

        self.vertex_link = self._compute_vertex_link()
        payload = {"genus": genus, "triangles": [list(t) for t in self.triangles]}
        self.checksum = _sha256(json.dumps(payload, sort_keys=True).encode())[:16]

    @property
    def num_edges(self) -> int:
        return 6 * self.genus - 3

    @property
    def num_triangles(self) -> int:
        return 4 * self.genus - 2

    def opposite(self, tri: int, slot: int) -> tuple[int, int]:
        """The other (triangle, slot) incidence of the same edge."""
        a, b = self.sides[self.triangles[tri][slot]]
        return b if a == (tri, slot) else a

    def side_of(self, letter: int) -> tuple[int, int]:
        """(triangle entered, slot) of a directed-crossing letter."""
        return divmod(letter, 3)

    def _compute_vertex_link(self) -> tuple[int, ...]:
        # The vertex-linking curve turns ahead at all corners, one letter each.
        word = [self.mate[0]]
        while self.ahead[word[-1]] != word[0]:
            word.append(self.ahead[word[-1]])
        if len(word) != len(self.ahead):
            raise RuntimeError("polygon identification does not give one vertex")
        return tuple(word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triangulation) and self.checksum == other.checksum

    def __hash__(self) -> int:
        return hash(self.checksum)

    def __repr__(self) -> str:
        return f"Triangulation(genus={self.genus}, checksum={self.checksum})"


@lru_cache(maxsize=None)
def standard_triangulation(genus: int) -> Triangulation:
    """The shipped triangulation for this genus, checked against assets."""
    tri = Triangulation(genus)
    asset = _ASSET_DIR / f"triangulation_g{genus}.json"
    if asset.exists():
        data = json.loads(asset.read_text())
        if data["checksum"] != tri.checksum or data["triangles"] != [
            list(t) for t in tri.triangles
        ]:
            raise RuntimeError(f"asset {asset} disagrees with the built triangulation")
    return tri
