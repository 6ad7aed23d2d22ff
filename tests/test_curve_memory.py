"""A long curve keeps its words as text, and `twist` builds its image as text.

`CurveClass` stores each canonical word once, encoded as a `str` of one
byte per letter, next to its kept trace (one byte of text and four of
positions per letter); `words` decodes on read.  Measured with
`tracemalloc` on rungs of the scale benchmark's twist ladders: a curve
loaded from the 5,484-letter genus-2 rung holds about 5.4 bytes per
letter, where a second copy of its word as a tuple of ints held 13.4.
Twisting the 5,861-letter genus-3 image back along its 9-letter chain
connector peaks near 0.96 MB, where building the image as a list and
a tuple of ints peaked near 1.18 MB.
"""

import tracemalloc

from cbgraph import curves, ops
from cbgraph.curves import CurveClass
from cbgraph.polygon import chain_connector, handle_curves
from cbgraph.surface import standard_triangulation


def _ladder(genus, k, letters):
    """The scale benchmark's handle-k ladder, dual curve b_k pushed
    alternately by T_{a_k} and T_{conn}^-1, up to its first curve of
    `letters` letters; the last step (curve, along, power, image)."""
    tri = standard_triangulation(genus)
    hs = handle_curves(tri)
    j = k + 1 if k < genus - 1 else k - 1
    steps = ((hs[2 * k], 1), (chain_connector(tri, min(j, k)), -1))
    c, n = hs[2 * k + 1], 0
    while True:
        d, p = steps[n % 2]
        n += 1
        img = ops.twist(c, d, p)
        if len(img.word) == letters:
            return c, d, p, img
        assert len(img.word) < letters
        c = img


def _traced(call):
    """(held, peak) bytes of `call()` under `tracemalloc`, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before, out


def test_loaded_curve_holds_under_7_bytes_per_letter():
    *_, rung = _ladder(2, 0, 5484)
    record = rung.to_json()
    curves._from_weights.cache_clear()
    ops.LAST_PAIR.clear()
    held, _, c = _traced(lambda: CurveClass.from_json(record))
    curves._from_weights.cache_clear()
    assert c == rung and len(c.word) == 5484
    assert held / 5484 < 7


def test_twist_back_of_a_long_image_peaks_under_1_1_mb():
    c, d, p, img = _ladder(3, 1, 5861)
    assert len(d.word) == 9 and p == -1
    ops.LAST_PAIR.clear()
    _, peak, back = _traced(lambda: ops.twist(img, d, -p))
    assert back == c
    assert peak < 1.1e6
