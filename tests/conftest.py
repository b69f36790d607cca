import tracemalloc

import pytest


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
