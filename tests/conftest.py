import multiprocessing
import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a multiprocessing child running, and end
    the child so the next test does not inherit it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"test left processes running: {left}"


@pytest.fixture
def two_cpus(monkeypatch):
    """Have this process, and the workers it forks, see CPUs {0, 1} and
    pin to them as a no-op, so that a parallel quantize_matrix forks a
    real two-worker pool on a machine of any CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


@pytest.fixture
def traced_peak():
    """Call ``fn(*args, **kwargs)`` under tracemalloc; returns (its result,
    the peak bytes traced during the call)."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
