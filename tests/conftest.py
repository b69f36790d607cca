import multiprocessing
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
