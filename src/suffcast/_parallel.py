"""Chunks of independent work, run in worker processes on one BLAS thread each.

The Monte Carlo study and the rolling evaluator each split their work into
chunks of items (replicates or forecast origins) and map one callable of the
chunk over them: :func:`chunked_map` ``(fn, chunks, jobs)`` returns
``[row for chunk in chunks for row in fn(chunk)]``, one row per item, in
order, whether the chunks run in-process or in a process pool.  What every
chunk reads besides its items is bound into ``fn`` with
:func:`functools.partial`.  A pool hands ``fn`` to each worker once, from its
initializer, which under fork copies nothing; sent with every task instead,
the partial holding the rolling evaluator's panel added 0.4 MB of pickle per
chunk and 0.9-1.1 MB (about 2%) to the benchmark's ``rolling`` ``peak_rss_mb``
on a 2-core VM.

numpy's bundled OpenBLAS runs one thread per core by default, so two
workers on two cores would run four BLAS threads.  Every chunk therefore runs
on ``BLAS_THREADS`` = 1, in each worker and in-process, which also gives every
result the same bits whatever the worker count or the user's thread setting.
Where numpy's BLAS exposes no thread setter, the count is left as it is.

The thread setter is called only where the count differs from
``BLAS_THREADS``.  OpenBLAS shuts its thread pool down at every fork, and a
setter call, even one that sets the count it already has, starts the pool
again.  A forked worker inherits the parent's pin, so it makes no call and
runs on its one OS thread; a call would start a pool thread that uses CPU
beside the worker though it has no work.  A spawned worker starts at
OpenBLAS's default count, and pins where that is not ``BLAS_THREADS``.

:func:`bundled_openblas` is the one lookup of that library: the thread pin
and the eigensolver :func:`suffcast._eigen.leading_pairs` both call through
it.  It loads the library on first use, never at import.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: BLAS threads of every chunk, in-process and in each worker
BLAS_THREADS = 1
#: symbol prefixes of numpy's bundled ILP64 OpenBLAS, from numpy 2 and before
#: it; every symbol also ends in ``64_``
_OPENBLAS_PREFIXES = ("scipy_", "")
#: the chunk function of a worker process, set by its initializer
_worker_fn = None


class OpenBLAS(NamedTuple):
    """The calls this package makes into numpy's bundled OpenBLAS, declared for ctypes."""

    set_num_threads: Callable
    get_num_threads: Callable
    #: ``LAPACKE_dsyevr``, or ``None`` where the build exports no LAPACKE
    dsyevr: Callable | None


def _declare_dsyevr(fn) -> None:
    """``LAPACKE_dsyevr``'s signature, with ILP64 ints and the arrays checked at each call."""
    i64, f64 = ctypes.c_int64, ctypes.c_double
    array = functools.partial(np.ctypeslib.ndpointer, flags=("F_CONTIGUOUS", "WRITEABLE"))
    values = array(np.float64)
    fn.argtypes = [
        ctypes.c_int,  # matrix layout
        ctypes.c_char, ctypes.c_char, ctypes.c_char,  # jobz, range, uplo
        i64, values, i64,  # n, a, lda
        f64, f64, i64, i64, f64,  # vl, vu, il, iu, abstol
        ctypes.POINTER(i64),  # m: the number of pairs found
        values, values, i64,  # w, z, ldz
        array(np.int64),  # isuppz
    ]
    fn.restype = i64


@functools.cache
def bundled_openblas() -> OpenBLAS | None:
    """The declared calls of numpy's bundled OpenBLAS, or ``None`` where it has none.

    The wheels ship the library beside the package (``numpy.libs``) or
    inside it (``.dylibs``); loading it again by path returns the copy numpy
    already uses.  A numpy linked against another BLAS has none.
    """
    root = Path(np.__file__).parent
    bundled = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for path in sorted(bundled):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            setter, getter, dsyevr = (
                getattr(lib, f"{prefix}{name}64_", None)
                for name in ("openblas_set_num_threads", "openblas_get_num_threads",
                             "LAPACKE_dsyevr")
            )
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                if dsyevr is not None:
                    _declare_dsyevr(dsyevr)
                return OpenBLAS(setter, getter, dsyevr)
    return None


def blas_threads() -> int | None:
    """The BLAS thread count every chunk runs on, or ``None`` where it cannot be set."""
    return BLAS_THREADS if bundled_openblas() is not None else None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on ``BLAS_THREADS``, then restore the count it found.

    Where the count already is ``BLAS_THREADS``, as in a pin inside a pin, it
    makes no call, neither to set nor to restore.
    """
    openblas = bundled_openblas()
    before = BLAS_THREADS if openblas is None else openblas.get_num_threads()
    if before == BLAS_THREADS:
        yield
        return
    openblas.set_num_threads(BLAS_THREADS)
    try:
        yield
    finally:
        openblas.set_num_threads(before)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn
    openblas = bundled_openblas()
    if openblas is not None and openblas.get_num_threads() != BLAS_THREADS:
        openblas.set_num_threads(BLAS_THREADS)


def _run_in_worker(chunk):
    return _worker_fn(chunk)


def chunked_map(fn, chunks: list, jobs: int) -> list:
    """``[row for chunk in chunks for row in fn(chunk)]``, on one BLAS thread, in order.

    ``jobs`` is the number of worker processes, 0 for one per usable CPU
    (:func:`usable_cpus`).  No more workers start than there are usable CPUs
    or chunks, since a pool forks all of its workers at the first submit,
    and with at most one the chunks run in-process.  ``fn`` must pickle: a
    module-level function, or a :func:`functools.partial` of one.  An exception a chunk
    raises is raised here, with its type and message; with workers, that of
    the earliest failing chunk.
    """
    cpus = usable_cpus()
    workers = min(jobs or cpus, cpus, len(chunks))
    with one_blas_thread():
        if workers <= 1:
            return [row for chunk in chunks for row in fn(chunk)]
        # imported here: the pool module pulls in multiprocessing, which would
        # slow every import of the package
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(fn,)
        ) as pool:
            return [row for rows in pool.map(_run_in_worker, chunks) for row in rows]
