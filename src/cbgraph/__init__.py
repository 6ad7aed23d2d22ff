"""Exact calculus for curves, compression bodies and torus complexes."""

# Entries of each bounded memo of exact answers (`ops`, `projections`,
# `farey`).
MEMO_ENTRIES = 4096
