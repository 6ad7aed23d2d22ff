"""Dehn's algorithm by prefix lookup agrees with the window scan, and
free reduction against the vertex link agrees with both on the loops
that `cbgraph` asks about.

`dehn_oracle.is_trivial` finds a factor longer than half a relator by
looking up each (2g + 1)-letter window of the doubled word in
`dehn_oracle._pieces`; `dehn_oracle.window_scan_is_trivial` scans every
relator rotation at every position.  Both decide the same word problem,
so they must agree on random words built to reach both answers.
`cbgraph.dehn.is_trivial` decides only simple dual loops, so it is
compared with them on every loop that bigon removal and the
neighbourhood boundaries actually ask about.
"""

import itertools
import random

import dehn_oracle
import pytest

from cbgraph import dehn, ops, position
from cbgraph.kernel import cyclic_reduce, encode, reverse_word
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation


def _letter(rng, genus):
    return rng.choice((1, -1)) * rng.randint(1, 2 * genus)


def _random_word(rng, genus):
    """A product of relator rotations, conjugated relators, near-relators
    and free letters."""
    rels = dehn_oracle._relators(genus)
    free = rng.random() < 0.5
    word = []
    for _ in range(rng.randint(1, 4)):
        rel = list(rng.choice(rels))
        kind = rng.randrange(4 if free else 2)
        if kind == 0:
            word += rel
        elif kind == 1:
            u = [_letter(rng, genus) for _ in range(rng.randint(1, 3))]
            word += u + rel + [-x for x in reversed(u)]
        elif kind == 2:
            # More than half a relator, but not all of it.
            word += rel[: rng.randint(2 * genus + 1, 4 * genus - 1)]
        else:
            word += [_letter(rng, genus) for _ in range(rng.randint(1, 3))]
    return tuple(word)


@pytest.mark.parametrize("genus", (2, 3, 4))
def test_prefix_lookup_agrees_with_the_window_scan(genus):
    rng = random.Random(1508 + genus)
    trivial = 0
    for _ in range(1000):
        word = _random_word(rng, genus)
        want = dehn_oracle.window_scan_is_trivial(genus, word)
        assert dehn_oracle.is_trivial(genus, word) == want, word
        trivial += want
    assert 200 < trivial < 800


@pytest.mark.parametrize("genus", (2, 3, 4, 5, 6))
def test_one_piece_per_relator_rotation(genus):
    pieces = dehn_oracle._pieces(genus)
    assert len(pieces) == len(dehn_oracle._relators(genus)) == 8 * genus
    for prefix, rest in pieces.items():
        assert len(prefix) == 2 * genus + 1 and len(rest) == 2 * genus - 1
        word = prefix + tuple(-x for x in reversed(rest))
        assert dehn_oracle.is_trivial(genus, word)
        assert dehn_oracle.window_scan_is_trivial(genus, word)


def test_drawn_loops_and_ribbon_boundaries_agree(monkeypatch):
    """Every loop asked about while seeded generator pairs are reduced
    and profiled: the bigon candidates of `Reduced` and the boundary
    circles of the neighbourhoods, each answer against Dehn's algorithm.

    Recording only the side-generator words handed to Dehn's algorithm
    no longer sees every loop: a candidate whose arcs are the same path
    is decided without a call, and a call takes the dual loop itself.
    So both `Reduced._loop_is_trivial` and `dehn.is_trivial` are
    recorded, and the three ways to answer must each be met: equal
    arcs, a reduction to the vertex link, and a nontrivial loop.
    """
    asked, loops = [], []
    decide, loop_test = dehn.is_trivial, position.Reduced._loop_is_trivial

    def recorded(tri, loop):
        out = decide(tri, loop)
        asked.append((tri, loop, out))
        return out

    def recorded_loop(self, alpha, beta_forward, beta):
        out = loop_test(self, alpha, beta_forward, beta)
        loops.append((self.tri, alpha, beta_forward, beta, out))
        return out

    monkeypatch.setattr(dehn, "is_trivial", recorded)
    monkeypatch.setattr(position.Reduced, "_loop_is_trivial", recorded_loop)
    rng = random.Random(1509)
    for g in (2, 3, 4):
        tri = standard_triangulation(g)
        gens = handle_curves(tri) + [chain_connector(tri, k) for k in range(g - 1)]
        pool = set(gens)
        while len(pool) < len(gens) + 6:
            c = rng.choice(gens)
            for _ in range(rng.randint(1, 2)):
                c = ops.twist(c, rng.choice(gens), rng.choice((1, -1)))
            pool.add(c)
        pool = sorted(pool)
        for c in pool:
            ops.neighborhood_profile([c])
        for c, d in itertools.combinations(pool, 2):
            ops.neighborhood_profile([c, d])
    assert len(loops) > 100 and len(asked) > len(loops)
    outcomes = set()
    for tri, alpha, beta_forward, beta, out in loops:
        flip = encode(tri.mate)
        if not beta_forward:
            beta = reverse_word(beta, flip)
        loop = alpha + reverse_word(beta, flip)
        assert dehn_oracle.loop_is_trivial(tri, loop) == out, (tri.genus, loop)
        if alpha == beta:
            outcomes.add("equal arcs")
    for tri, loop, out in asked:
        assert dehn_oracle.loop_is_trivial(tri, loop) == out, (tri.genus, loop)
        if not out:
            outcomes.add("nontrivial")
        elif cyclic_reduce(loop, encode(tri.mate)):
            outcomes.add("vertex link")
    assert outcomes == {"equal arcs", "vertex link", "nontrivial"}
