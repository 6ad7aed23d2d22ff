"""The hot word operations.

Words are cyclic sequences of small int letters.  Letters carry an
involution `mate` (as an indexable sequence): traversing a letter
backwards gives its mate, and the pattern x, mate(x) is a backtrack.
"""

from __future__ import annotations

# Name of this implementation, recorded in benchmark provenance.
BACKEND = "python"


def cyclic_reduce(word, mate):
    """Remove backtracks (x followed by mate[x]) cyclically.

    One stack pass cancels the backtracks of the linear word, then the
    ends are stripped once while they cancel; linear in the length.  The
    result is cyclically reduced, but it need not be the rotation that
    repeated left-to-right passes would leave.  Every caller passes it
    through `canonical_cyclic` or tests it for emptiness, so no answer
    depends on the rotation.
    """
    out = []
    for x in word:
        if out and x == mate[out[-1]]:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while j > i and out[i] == mate[out[j]]:
        i, j = i + 1, j - 1
    return tuple(out[i : j + 1])


def min_rotation(word):
    """Lexicographically minimal rotation (Booth's algorithm)."""
    w = tuple(word)
    n = len(w)
    if n <= 1:
        return w
    s = w + w
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return s[k : k + n]


def reverse_word(word, mate):
    """The same cyclic path traversed backwards."""
    return tuple(mate[x] for x in reversed(word))


def canonical_cyclic(word, mate):
    """Minimal rotation over both traversal directions, after reduction."""
    w = cyclic_reduce(word, mate)
    if not w:
        return w
    a = min_rotation(w)
    b = min_rotation(reverse_word(w, mate))
    return a if a <= b else b
