"""The corner walk that built the vertex link before `Triangulation.ahead`.

It rotates each corner (t, k) across the edge at slot k into the
opposite triangle, one letter per corner, until it returns to (0, 0).
It is kept as the oracle for the link as the orbit of the turn table
`ahead`: both must give the same word, starting at mate[0].
"""


def vertex_link(tri) -> tuple[int, ...]:
    # The vertex-linking curve as a directed-crossing word: rotating
    # the corner (t, k) across the edge at slot k enters the opposite
    # triangle, giving one letter per corner.
    corners = {(t, k) for t in range(tri.num_triangles) for k in range(3)}
    cur = (0, 0)
    word = []
    seen = []
    while cur in corners:
        corners.remove(cur)
        seen.append(cur)
        t2, s2 = tri.opposite(cur[0], cur[1])
        word.append(3 * t2 + s2)
        cur = (t2, (s2 + 1) % 3)
    if corners or cur != seen[0]:
        raise RuntimeError("polygon identification does not give one vertex")
    return tuple(word)
