"""Exact calculus for curves, compression bodies and torus complexes."""

# Entries of each bounded memo of exact answers.  Every memo is a
# `functools.lru_cache` on a private function behind a public wrapper
# that normalises the key and returns nothing a caller can change;
# errors are raised every time and never cached.
#
# - `ops`: intersection numbers and the punctured-torus test (ints, bools);
# - `projections.project`, `farey.enumerate_slopes` (frozensets, copied);
# - `cb._placement` (a tuple of bools) and `cut.cut_profile` (a tuple,
#   returned as a fresh list);
# - `cb.small_cb`, which holds a shared `MarkedCB`, and
#   `CurveClass.from_weights`, which holds a shared `CurveClass`: both
#   are value-typed and never written after construction.
#
# After a cold acceptance pass (seed 101) they hold 2,143 entries and
# 1.05 MB (`tracemalloc`), keys' curves included.
#
# Besides the memos, `ops.LAST_PAIR` holds the last curve pair drawn, its
# drawing and its bigon reduction, which the pair operations share; it
# is replaced, not grown, by the next pair.
MEMO_ENTRIES = 4096
