"""The hot word operations.

Words are cyclic sequences of small int letters.  Letters carry an
involution `mate`: traversing a letter backwards gives its mate, and
the pattern x, mate(x) is a backtrack.  Reduction takes `mate` as a
sequence or a dict and walks the word once; the canonical form takes a
sequence.

The `*_text` forms take a word encoded as a `str`, one code point per
letter, so letters lie in 0..0x10FFFF.  `encode` and `decode` convert
through `array("I")` and UTF-32, without a Python step per letter.
There the mate is a `str.translate` table `flip` (the character at x
is mate(x)), and the per-letter work runs in string operations.  The
least rotation and the canonical form exist once, on text; the tuple
entry points encode, call them and decode.
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
    through `canonical_cyclic`, tests it for emptiness or looks it up
    among all rotations of the vertex link, so no answer depends on the
    rotation.
    """
    out = free_reduce(word, mate)
    i, j = 0, len(out) - 1
    while j > i and out[i] == mate[out[j]]:
        i, j = i + 1, j - 1
    return out[i : j + 1]


def cyclic_reduce_text(text: str, flip: str) -> str:
    """`cyclic_reduce` of an encoded word.

    Translating the word by `flip` and comparing it with the word
    rotated by one finds a backtrack, the cyclic one included, without
    a Python step per letter.  A word without one is its own reduction;
    only a word with one is decoded for the stack pass.
    """
    if True in map(eq, text.translate(flip), text[1:] + text[:1]):
        return encode(cyclic_reduce(decode(text), decode(flip)))
    return text


@lru_cache(maxsize=256)
def _blocks_at(least: str):
    """`findall` cutting a string at the runs of its least letter."""
    e = re.escape(least)
    return re.compile(f"{e}+[^{e}]+").findall


def min_rotation_text(text: str) -> str:
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
    return text[k:] + text[:k]


def min_rotation(word):
    """Lexicographically minimal rotation (`min_rotation_text`)."""
    return decode(min_rotation_text(encode(word)))


def reverse_word(word, mate):
    """The same cyclic path traversed backwards."""
    return tuple(mate[x] for x in reversed(word))


def canonical_text(text: str, flip: str) -> str:
    """Minimal rotation over both traversal directions of a cyclically
    reduced encoded word; `flip` is the mate table."""
    a = min_rotation_text(text)
    b = min_rotation_text(text[::-1].translate(flip))
    return a if a <= b else b


def canonical_reduced(word, mate):
    """Minimal rotation over both traversal directions of a reduced word.

    The word must already be cyclically reduced; `canonical_cyclic`
    reduces it first.  `mate` is a sequence here.
    """
    return decode(canonical_text(encode(word), encode(mate)))


def canonical_cyclic(word, mate):
    """Minimal rotation over both traversal directions, after reduction."""
    return canonical_reduced(cyclic_reduce(word, mate), mate)
