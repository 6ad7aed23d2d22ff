"""Exact calculus for curves, compression bodies and torus complexes."""

# Entries of each bounded memo of exact answers.  Every memo is a
# `functools.lru_cache` on a private function behind a public wrapper
# that normalises the key and returns nothing a caller can change;
# errors are raised every time and never cached.
#
# - `ops`: the intersection number and the punctured-torus test (ints,
#   bools), and `geom._corner_vectors`, the corner counts of a class (an
#   array), which give the algebraic count;
# - `projections.project` (a frozenset, copied);
# - `cb._placement` (a tuple of bools) and `cut.cut_profile` (a tuple,
#   returned as a fresh list);
# - `cb.small_cb`, which holds a shared `MarkedCB`, and
#   `CurveClass.from_weights`, which holds a shared `CurveClass`: both
#   are value-typed and never written after construction.
#
# After a cold acceptance pass (seed 101) they hold 2,497 entries and
# 1.57 MB (`tracemalloc`), 605 entries and 0.48 MB of them corner
# counts, keys' curves and the traces they keep (`CurveClass.trace`)
# included.  `tests/conftest.py` lists these eight in `MEMOS` and clears
# them before every test, and a test fails if a memo of `MEMO_ENTRIES`
# entries is missing there.
#
# Per-process tables are unbounded `functools.lru_cache`s too, keyed by
# genus or triangulation and never cleared: `surface.standard_triangulation`,
# `suites._fixtures`, `oracles._levels` and `curves.translate_tables`, the
# one set of text tables that the pair layers read; `kernel._blocks_at`
# keeps up to 256 compiled patterns.
#
# Besides the memos, `ops.LAST_PAIR` holds the last curve pair drawn, its
# drawing and its bigon reduction, which the pair operations share; it
# is replaced, not grown, by the next pair.
MEMO_ENTRIES = 4096
