import os
import signal
import tracemalloc

import pytest


def _child_pids():
    """Ids of this process's children, running or exited but not reaped."""
    try:  # reaps nothing (WNOWAIT); raises if there is no child at all
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:  # the usual case: no /proc to read
        return []
    me, pids = str(os.getpid()), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[1] == me:
                    pids.append(int(entry))
        except (FileNotFoundError, ProcessLookupError):  # it has gone
            pass
    return pids


@pytest.fixture
def child_pids():
    """A function that lists this process's children, as the check after
    every test does."""
    return _child_pids


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a child process, forked or spawned, running
    or unreaped, and end and reap it so the next test does not inherit it."""
    yield
    left = _child_pids()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
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
