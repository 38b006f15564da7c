"""Parallel work, in one place: the worker rule, the map over column
spans on threads, the fork gate and the fork helper.

A pass over X (``map_spans``, whose threads end with the call) and the
load or save of a large matrix CSV (``io``) are split across
``workers()``: the CPUs the process may run on over the threads OpenBLAS
runs a GEMM on, at least one (with OpenBLAS on both of 2 CPUs, two
workers made srs, n=400 on 100 x 50,000, slower: 85 against 79 ms,
medians of six alternating runs).  A load or save forks (``split``) only
where ``os.fork`` exists, OpenBLAS runs one thread and the OS counts one
thread, BLAS threads included: a child forked from a threaded process
can deadlock on a lock another thread held.  While Python knows of no
other thread, the count is read again for up to ``SETTLE_S``, as the OS
may list a thread just joined for a moment.
"""

import os
import signal
import threading
import time
from contextlib import AbstractContextManager, suppress

# the bytes of a tile: of the |Phi . X| screen, of volume sampling's column
# blocks, of a k-means restart group and of the float32 data map_spans runs
# inline.  On 100 x 50,000 data (2 MiB of L2 cache per core, 1 BLAS
# thread) screen tiles of 4 MiB took 1.4 times as long as tiles of 2 MiB.
TILE_BYTES = 2 << 20
SETTLE_S = 0.005  # read at once, 1 count in 500 still held a joined thread


def cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads OpenBLAS runs a GEMM on: the first positive integer in
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else every CPU, as OpenBLAS
    does."""
    values = (os.environ.get(v, "") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(v) for v in values if v.strip().isdigit() and int(v) > 0), cpus())


def workers() -> int:
    """The CPUs over the BLAS threads, at least one."""
    return max(1, cpus() // blas_threads())


def map_spans(fn, X, cols: int) -> list:
    """``[fn(a, b)]`` over contiguous column spans [a, b) of ``X``, in order.

    The spans are whole tiles of ``cols`` columns, at most one per worker,
    the first on the calling thread and each other on a thread joined
    before this returns or raises the first span's exception (numpy's GEMMs
    and reductions release the GIL); one span with one worker or data whose
    float32 copy fits in ``TILE_BYTES``.  ``fn`` must not print, start a
    process or call a sampler by its module name: a tracer that rebinds
    those names keeps one span stack, for the calling thread.
    """
    n2 = X.shape[1]
    tiles = -(-n2 // cols)
    k = 1 if 4 * X.size <= TILE_BYTES else min(workers(), tiles)
    edges = [min(n2, cols * (tiles * i // k)) for i in range(k + 1)]
    out, failed = [None] * k, {}

    def run(i):
        try:
            out[i] = fn(edges[i], edges[i + 1])
        except BaseException as exc:  # raised again in the calling thread
            failed[i] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    try:
        for helper in helpers:
            helper.start()
        run(0)
    finally:
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()
    if failed:
        raise failed[min(failed)]
    return out


def threads() -> int:
    """The threads this process runs as the OS counts them, native ones
    (the BLAS's, say) included; 0 where the OS does not tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def split(parts: int) -> int:
    """The spans to load or save in: ``parts`` or the workers, the fewer,
    if the process may fork, else 1."""
    k = min(workers(), parts)
    if k < 2 or not hasattr(os, "fork") or blas_threads() > 1:
        return 1
    deadline = time.monotonic() + SETTLE_S * (threading.active_count() == 1)
    while (n := threads()) > 1 and time.monotonic() < deadline:
        time.sleep(SETTLE_S / 20)
    return k if n == 1 else 1


class Forks(AbstractContextManager):
    """A child forked per span runs ``child(out, span)``, ``out`` writing
    to a pipe of its own, and leaves through ``os._exit``, 0 once ``child``
    returns, so it runs none of its caller's code and flushes no inherited
    buffer.  ``pipes`` holds the read ends in span order, fewer if a pipe
    or fork fails.  Leaving the ``with`` block kills and reaps every child
    not yet reaped and closes the pipes."""

    def __init__(self, spans, child):
        self.pipes, self.pids = [], []
        for span in spans:
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                status = 1
                try:
                    # left open on a failure until the exit, so a parent
                    # that sees the pipe end reaps the exit status
                    out = open(fds[1], "wb")
                    child(out, span)
                    out.close()
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds[1])
            self.pids.append(pid)
            self.pipes.append(open(fds[0], "rb"))

    def reaped(self) -> bool:
        """Wait for every child, each done sending; whether all exited 0."""
        ok = True
        while self.pids:
            ok &= os.waitpid(self.pids[0], 0)[1] == 0
            del self.pids[0]
        return ok

    def __exit__(self, *exc):
        # children are left only when this process raised or a load gave
        # up; one may be gone already if SIGCHLD is ignored
        for pid in self.pids:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in self.pipes:
            pipe.close()
