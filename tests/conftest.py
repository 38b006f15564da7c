"""Test-session set-up, run before any test module imports numpy.

OpenBLAS starts its thread pool when numpy loads, one thread per CPU
unless told otherwise, and a process running native threads never forks;
so the tests of the forked CSV load and save would skip.  One BLAS thread,
unless the environment asks for more, lets them run.  Tests of more BLAS
threads set their own environment in a subprocess.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
