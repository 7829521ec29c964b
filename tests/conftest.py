import concurrent.futures
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/oracles.py importable


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools ``run_experiment`` starts, on a host taken to have 8 CPUs.

    ``os.cpu_count`` is patched so that the pool path is taken on any host.
    """
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
