import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cbgraph import cb, curves, cut, farey, geom, ops, projections  # noqa: E402

# Every memo of exact answers in the package.
MEMOS = (
    ops._intersect,
    ops._common_punctured_torus,
    projections._project,
    cb._placement,
    cb._small_cb,
    cut._cut_profile,
    curves._from_weights,
    geom._corner_vectors,
)


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with empty memos and no shared pair drawing, so
    that the work a test counts does not depend on which tests ran
    before it."""
    for memo in MEMOS:
        memo.cache_clear()
    ops.LAST_PAIR.clear()
