"""Int-tuple forms of the word operations, for the oracles and tests.

`cbgraph.kernel` works on encoded text only.  The tuple forms it used to
keep beside its text functions live here:

- `free_reduce`, `cyclic_reduce` and `reverse_word` run on any letters
  whose `mate` is a sequence or a dict, such as the signed side letters
  of `dehn_oracle`, so they are independent of the text kernel that
  tests compare them with;
- `min_rotation` and `canonical_reduced` encode, call the kernel's
  `min_rotation` and `reverse_word` and decode.  `canonical_reduced`
  does not reduce, so comparing it with the kernel's `canonical_cyclic`,
  which does, checks that reduction leaves a reduced word alone;
- `canonical_cyclic` is the tuple `cyclic_reduce`, then
  `canonical_reduced`.
"""

from __future__ import annotations

from cbgraph import kernel
from cbgraph.kernel import decode, encode


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
    """Remove backtracks (x followed by mate[x]) cyclically: `free_reduce`,
    then the ends are stripped once while they cancel."""
    out = free_reduce(word, mate)
    i, j = 0, len(out) - 1
    while j > i and out[i] == mate[out[j]]:
        i, j = i + 1, j - 1
    return out[i : j + 1]


def reverse_word(word, mate):
    """The same cyclic path traversed backwards."""
    return tuple(mate[x] for x in reversed(word))


def min_rotation(word):
    """Lexicographically minimal rotation (`kernel.min_rotation`)."""
    return decode(kernel.min_rotation(encode(word)))


def canonical_reduced(word, mate):
    """Minimal rotation over both traversal directions of a word that is
    already cyclically reduced; `mate` is a sequence."""
    text, flip = encode(word), encode(mate)
    a = kernel.min_rotation(text)
    b = kernel.min_rotation(kernel.reverse_word(text, flip))
    return decode(min(a, b))


def canonical_cyclic(word, mate):
    """Minimal rotation over both traversal directions, after reduction."""
    return canonical_reduced(cyclic_reduce(word, mate), mate)
