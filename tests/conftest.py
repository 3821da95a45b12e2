import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from xratio import exhaustive_cn  # noqa: E402


@pytest.fixture(scope="session")
def exhaustive_results():
    """exhaustive_cn(n) for n = 3..8, computed once per session (about 3 s)."""
    return {n: exhaustive_cn(n) for n in range(3, 9)}
