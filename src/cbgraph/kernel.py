"""The hot word operations, one function each, on encoded text.

Words are cyclic sequences of small int letters, encoded as a `str`
with one code point per letter, so letters lie in 0..0x10FFFF.
`encode` and `decode` convert through `array("I")` and UTF-32, without
a Python step per letter; the package decodes only where int letters
leave as public output or become array indices.  Letters carry an
involution `mate`: traversing a letter backwards gives its mate, and
the pattern x, mate(x) is a backtrack.  The mate is a `str.translate`
table `flip` (the character at x is mate(x)), so reversal is a
reversed slice translated by `flip` and the per-letter work runs in
string operations.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from operator import eq

# Name of this implementation, recorded in benchmark provenance.
BACKEND = "python"

# Code units of `array("I")`, four bytes each, in native byte order.
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def encode(word) -> str:
    """The word as a `str`, one code point per letter.

    Surrogate code points are letters like any other, so a letter
    outside 0..0x10FFFF is the only one refused.
    """
    return array("I", word).tobytes().decode(_UTF32, "surrogatepass")


def decode(text: str) -> tuple[int, ...]:
    """The letters of an encoded word."""
    return tuple(array("I", text.encode(_UTF32, "surrogatepass")))


def cyclic_reduce(text: str, flip: str) -> str:
    """Remove backtracks (x followed by mate(x)) cyclically.

    Translating the word by `flip` and comparing it with the word
    rotated by one finds a backtrack, the cyclic one included, without
    a Python step per letter; a word without one is its own reduction.
    Otherwise one stack pass cancels the backtracks of the linear word
    (a letter cancels the top of the stack when that is its mate), then
    the ends are stripped once while they cancel; linear in the length.
    The result is cyclically reduced, but it need not be the rotation
    that repeated left-to-right passes would leave.  Every caller passes
    it through `canonical_cyclic`, tests it for emptiness or looks it up
    among all rotations of the vertex link, so no answer depends on the
    rotation.
    """
    mates = text.translate(flip)
    if True not in map(eq, mates, text[1:] + text[:1]):
        return text
    out = []
    for x, y in zip(text, mates):
        if out and out[-1] == y:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while j > i and out[i] == flip[ord(out[j])]:
        i, j = i + 1, j - 1
    return "".join(out[i : j + 1])


def reverse_word(text: str, flip: str) -> str:
    """The same path traversed backwards."""
    return text[::-1].translate(flip)


@lru_cache(maxsize=256)
def _blocks_at(least: str):
    """`findall` cutting a string at the runs of its least letter."""
    e = re.escape(least)
    return re.compile(f"{e}+[^{e}]+").findall


def min_rotation(text: str) -> str:
    """Lexicographically minimal rotation of an encoded word, by
    least-letter blocks.

    With m the least letter, a least rotation starts at a maximal run
    of m, so the string is rotated to start at one and cut into blocks:
    a maximal run of m and the other letters after it.  Ordinary string
    order on blocks agrees with the order of the rotations they start (a
    block that is a proper prefix of another is followed by m, which is
    below the other block's next letter), so the least rotation of the
    string of block ranks gives the answer.  Every block holds an m and
    another letter, so each round at least halves the length and there
    are O(log n) rounds; with the sort of the distinct blocks the work
    is O(n log n) character comparisons, all inside `str` methods.
    Cutting at single m letters instead would shrink m^k x by one letter
    per round, a quadratic loop.

    Block ranks are code points too, so words longer than 0x10FFFF
    letters are out of range.
    """
    s = text
    if not s:
        return s
    rounds = []
    m = min(s)
    while True:
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
        m = "\x00"  # the least block's rank
    for p, size, blocks in reversed(rounds):
        k = (p + sum(map(len, blocks[:k]))) % size
    return text[k:] + text[:k]


def canonical_cyclic(text: str, flip: str) -> str:
    """Minimal rotation over both traversal directions, after reduction."""
    w = cyclic_reduce(text, flip)
    a = min_rotation(w)
    b = min_rotation(reverse_word(w, flip))
    return a if a <= b else b
