"""The hot word operations.

Words are cyclic sequences of small int letters.  Letters carry an
involution `mate` (a sequence or a dict): traversing a letter
backwards gives its mate, and the pattern x, mate(x) is a backtrack.
Reduction walks the word once; the least rotation encodes it as a
`str`, one character per letter, and does its per-letter work in
string operations.
"""

from __future__ import annotations

import re
from functools import lru_cache

# Name of this implementation, recorded in benchmark provenance.
BACKEND = "python"


def free_reduce(word, mate):
    """Remove backtracks (x followed by mate[x]) in one stack pass."""
    out = []
    for x in word:
        if out and x == mate[out[-1]]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word, mate):
    """Remove backtracks (x followed by mate[x]) cyclically.

    `free_reduce` cancels the backtracks of the linear word, then the
    ends are stripped once while they cancel; linear in the length.  The
    result is cyclically reduced, but it need not be the rotation that
    repeated left-to-right passes would leave.  Every caller passes it
    through `canonical_cyclic`, tests it for emptiness or runs Dehn's
    algorithm on it, which decides the whole conjugacy class, so no
    answer depends on the rotation.
    """
    out = free_reduce(word, mate)
    i, j = 0, len(out) - 1
    while j > i and out[i] == mate[out[j]]:
        i, j = i + 1, j - 1
    return out[i : j + 1]


@lru_cache(maxsize=256)
def _blocks_at(least: str):
    """`findall` cutting a string at the runs of its least letter."""
    e = re.escape(least)
    return re.compile(f"{e}+[^{e}]+").findall


def min_rotation(word):
    """Lexicographically minimal rotation, by least-letter blocks.

    The word is encoded one letter per character, so each round runs on
    `str` operations.  With m the least letter, a least rotation starts
    at a maximal run of m, so the string is rotated to start at one and
    cut into blocks: a maximal run of m and the other letters after it.
    Ordinary string order on blocks agrees with the order of the
    rotations they start (a block that is a proper prefix of another is
    followed by m, which is below the other block's next letter), so
    the least rotation of the string of block ranks gives the answer.
    Every block holds an m and another letter, so each round at least
    halves the length and there are O(log n) rounds; with the sort of
    the distinct blocks the work is O(n log n) character comparisons,
    all inside `str` methods.  Cutting at single m letters instead
    would shrink m^k x by one letter per round, a quadratic loop.

    Letters and block ranks are encoded as code points, so letters lie
    in 0..0x10FFFF and words longer than 0x10FFFF letters are out of
    range.
    """
    w = tuple(word)
    if not w:
        return w
    s = "".join(map(chr, w))
    rounds = []
    while True:
        m = min(s)
        count = s.count(m)
        if count == 1:
            k = s.find(m)
            break
        if count == len(s):
            k = 0
            break
        # The first m after the leading run of m starts a maximal run;
        # with none, the leading run itself is maximal.
        p = max(s.find(m, len(s) - len(s.lstrip(m))), 0)
        blocks = _blocks_at(m)(s[p:] + s[:p])
        rounds.append((p, len(s), blocks))
        distinct = sorted(set(blocks))
        rank = dict(zip(distinct, map(chr, range(len(distinct)))))
        s = "".join(map(rank.__getitem__, blocks))
    for p, size, blocks in reversed(rounds):
        k = (p + sum(map(len, blocks[:k]))) % size
    return w[k:] + w[:k]


def reverse_word(word, mate):
    """The same cyclic path traversed backwards."""
    return tuple(mate[x] for x in reversed(word))


def canonical_reduced(word, mate):
    """Minimal rotation over both traversal directions of a reduced word.

    The word must already be cyclically reduced; `canonical_cyclic`
    reduces it first.
    """
    a = min_rotation(word)
    b = min_rotation(reverse_word(word, mate))
    return a if a <= b else b


def canonical_cyclic(word, mate):
    """Minimal rotation over both traversal directions, after reduction."""
    return canonical_reduced(cyclic_reduce(word, mate), mate)
