import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from xratio import Engine, exhaustive_cn  # noqa: E402


class RecordingEngine(Engine):
    """Engine that records every (problem, degree) it is asked for."""

    def __init__(self):
        super().__init__()
        self.recorded: list = []

    def degree(self, inst) -> int:
        d = super().degree(inst)
        self.recorded.append((inst, d))
        return d


@pytest.fixture(scope="session")
def exhaustive_runs():
    """exhaustive_cn(n) for n = 3..8 with the (problem, degree) of every
    class it scored, computed once per session (about 3 s)."""
    runs = {}
    for n in range(3, 9):
        eng = RecordingEngine()
        runs[n] = exhaustive_cn(n, engine=eng), eng.recorded
    return runs


@pytest.fixture(scope="session")
def exhaustive_results(exhaustive_runs):
    """exhaustive_cn(n) for n = 3..8."""
    return {n: res for n, (res, _) in exhaustive_runs.items()}
