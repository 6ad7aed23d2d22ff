"""The window-scanning Dehn's algorithm that `dehn.is_trivial` replaced.

Each shortening step tries every relator rotation at every cyclic
position of the word and builds one tuple per window.  It is kept as
the oracle for the prefix lookup of `dehn.is_trivial`: both decide the
same word problem, so they must agree on every word.
"""

from cbgraph.dehn import _inverse, _relators
from cbgraph.kernel import cyclic_reduce


def is_trivial(genus: int, word) -> bool:
    """Whether a side-generator word is null-homotopic (Dehn's algorithm)."""
    half = 2 * genus
    rots = _relators(genus)
    inverse = _inverse(genus)
    w = cyclic_reduce(word, inverse)
    while w:
        n = len(w)
        if n < half + 1:
            # Too short to contain more than half a relator: nontrivial.
            return False
        replaced = False
        # Look for a factor longer than half a relator and shorten.
        for rel in rots:
            piece = rel[: half + 1]
            for i in range(n):
                if tuple(w[(i + k) % n] for k in range(half + 1)) == piece:
                    rest = tuple(-x for x in reversed(rel[half + 1 :]))
                    w = cyclic_reduce(
                        tuple(w[(i + half + 1 + k) % n] for k in range(n - half - 1))
                        + rest,
                        inverse,
                    )
                    replaced = True
                    break
            if replaced:
                break
        if not replaced:
            return False
    return True
