"""Dehn's algorithm by prefix lookup agrees with the window scan it replaced.

`dehn.is_trivial` finds a factor longer than half a relator by looking
up each (2g + 1)-letter window of the doubled word in `dehn._pieces`;
`dehn_oracle.is_trivial` is the old scan of every relator rotation at
every position.  Both decide the same word problem, so they must agree
on random words built to reach both answers and on every loop that bigon
removal and the neighbourhood boundaries actually ask about.
"""

import itertools
import random

import dehn_oracle
import pytest

from cbgraph import dehn, ops, position
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation


def _letter(rng, genus):
    return rng.choice((1, -1)) * rng.randint(1, 2 * genus)


def _random_word(rng, genus):
    """A product of relator rotations, conjugated relators, near-relators
    and free letters."""
    rels = dehn._relators(genus)
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
        want = dehn_oracle.is_trivial(genus, word)
        assert dehn.is_trivial(genus, word) == want, word
        trivial += want
    assert 200 < trivial < 800


@pytest.mark.parametrize("genus", (2, 3, 4, 5, 6))
def test_one_piece_per_relator_rotation(genus):
    pieces = dehn._pieces(genus)
    assert len(pieces) == len(dehn._relators(genus)) == 8 * genus
    for prefix, rest in pieces.items():
        assert len(prefix) == 2 * genus + 1 and len(rest) == 2 * genus - 1
        assert dehn.is_trivial(genus, prefix + tuple(-x for x in reversed(rest)))


def test_drawn_loops_and_ribbon_boundaries_agree(monkeypatch):
    # Every word Dehn's algorithm is asked about while seeded generator
    # pairs are reduced and profiled: the bigon loops of `Reduced` and
    # the boundary circles of the neighbourhoods.
    asked, loops = [], [0]
    decide, loop = dehn.is_trivial, position.Reduced._loop_is_trivial

    def recorded(genus, word):
        out = decide(genus, word)
        asked.append((genus, tuple(word), out))
        return out

    def counted_loop(self, *args):
        loops[0] += 1
        return loop(self, *args)

    monkeypatch.setattr(dehn, "is_trivial", recorded)
    monkeypatch.setattr(position.Reduced, "_loop_is_trivial", counted_loop)
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
    assert loops[0] > 100 and len(asked) > loops[0]
    assert {out for _, _, out in asked} == {True, False}
    for genus, word, out in asked:
        assert dehn_oracle.is_trivial(genus, word) == out, (genus, word)
