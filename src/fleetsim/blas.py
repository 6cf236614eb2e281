"""numpy's OpenBLAS, pinned to one thread, and a stamp of the environment.

The fits' bits depend on the BLAS thread count: at two threads the
first conv layer's ``dW`` product of a training batch is split across
threads, which reorders its sums, so ``train-dqn`` writes another
``qnet.npz``.  A second thread does not pay here either: the
simulator's network calls are batches of one, and a 600-step
``train_dqn`` took 35.7-35.9 s at one thread and 36.3-38.3 s at two
on a 2-core host.

:func:`pin_one_thread` finds the OpenBLAS that the numpy wheel ships in
its ``numpy.libs`` directory, through ``ctypes``, and sets it to one
thread after numpy has loaded it, whatever ``OPENBLAS_NUM_THREADS``
said.  The command line calls it first.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _openblas():
    """numpy's OpenBLAS as its ``(get_corename, get_num_threads, set_num_threads)``
    functions, or ``None`` when numpy ships none that exports all three."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)  # the handle numpy's own load holds
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                found = [getattr(lib, f"{prefix}{name}{suffix}", None)
                         for name in ("get_corename", "get_num_threads", "set_num_threads")]
                if None in found:
                    continue
                core, threads, set_threads = found
                core.argtypes, core.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                return core, threads, set_threads
    return None


def pin_one_thread() -> dict:
    """Set numpy's OpenBLAS to one thread; the stamp of the environment.

    The stamp holds numpy's version, the OpenBLAS core and the thread
    count read back after the pin: the fields that outputs recorded bit
    for bit hold for.  Without an OpenBLAS in numpy's wheel (a numpy
    built on another BLAS), nothing is pinned, and the core and the
    count are ``None``.
    """
    stamp = {"numpy": np.__version__, "openblas_core": None, "blas_threads": None}
    lib = _openblas()
    if lib is not None:
        core, threads, set_threads = lib
        set_threads(1)
        stamp.update(openblas_core=core().decode(), blas_threads=threads())
    return stamp
