import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cbgraph import farey, ops, projections  # noqa: E402

# Every memo of exact answers in the package.
MEMOS = (
    ops._intersect,
    ops._algebraic,
    ops._common_punctured_torus,
    projections._project,
    farey._slopes,
)


@pytest.fixture(autouse=True)
def cold_memos():
    """Start each test with empty memos, so that the work a test counts
    does not depend on which tests ran before it."""
    for memo in MEMOS:
        memo.cache_clear()
