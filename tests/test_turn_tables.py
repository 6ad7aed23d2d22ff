"""The turn tables and first-incidence flags that `Triangulation` owns.

The vertex link is the orbit of `ahead` through mate[0] and must equal
the corner walk it replaced; `ahead` steps along the link and `back`
along its reversal, which is what the closure of `vertex_canonical`
reads as the link's two successor tables; `first` marks the first
listed incidence of each edge, one of each letter and its mate.
"""

import link_oracle
from tuple_words import reverse_word

from cbgraph.surface import Triangulation

TRIS = [Triangulation(g) for g in range(2, 13)]


def _successors(cycle):
    return list(zip(cycle, cycle[1:] + cycle[:1]))


def _orbit(table, x):
    out = [x]
    while table[out[-1]] != x:
        out.append(table[out[-1]])
    return tuple(out)


def test_vertex_link_is_the_corner_walk():
    for tri in TRIS:
        link = link_oracle.vertex_link(tri)
        assert tri.vertex_link == link == _orbit(tri.ahead, tri.mate[0]), tri.genus
        assert sorted(link) == list(range(3 * tri.num_triangles))


def test_turn_tables_step_along_the_link():
    for tri in TRIS:
        link = tri.vertex_link
        assert all(tri.ahead[x] == y for x, y in _successors(link)), tri.genus
        reverse = reverse_word(link, tri.mate)
        assert all(tri.back[x] == y for x, y in _successors(reverse)), tri.genus


def test_first_marks_the_first_listed_incidence():
    for tri in TRIS:
        for x in range(3 * tri.num_triangles):
            assert tri.first[x] == (tri.sides[tri.side_edge[x]][0] == divmod(x, 3))
            assert tri.first[x] != tri.first[tri.mate[x]]
