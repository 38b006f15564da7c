"""Test-session set-up, run before any test module imports numpy.

OpenBLAS starts its thread pool when numpy loads, one thread per CPU
unless told otherwise, and a process running native threads never forks;
so the tests of the forked CSV load and save would skip.  One BLAS thread,
unless the environment asks for more, lets them run.  Tests of more BLAS
threads set their own environment in a subprocess.

The ``traced_peak`` fixture measures the memory a call allocates, and
every test fails that leaves running a thread it started.
"""

import os
import threading
import tracemalloc

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` is ``(fn(...), peak)``, the peak
    in bytes that ``tracemalloc`` traced above its base during the call."""
    return _traced_peak


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves running a thread it started; a thread about
    to end gets a second to do so."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for thread in left:
        thread.join(1.0)
    assert [t.name for t in left if t.is_alive()] == []
