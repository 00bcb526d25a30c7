import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


@pytest.fixture(autouse=True)
def one_call_per_sample(monkeypatch):
    """The tests' inputs are small; a sample of one call keeps them quick."""
    import workloads

    monkeypatch.setattr(workloads, "SAMPLE_S", 0.0)
