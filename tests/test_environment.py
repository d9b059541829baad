"""The test session runs numpy's OpenBLAS on the thread count conftest.py sets."""
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def openblas_threads():
    """Thread count of the loaded OpenBLAS, or None when none is found."""
    maps = Path("/proc/self/maps")
    if not maps.is_file():
        return None
    libs = sorted(
        {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line.lower() and ".so" in line}
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def test_openblas_runs_the_configured_thread_count():
    np.ones((64, 64)) @ np.ones((64, 64))  # the BLAS library is loaded by now
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against a loadable OpenBLAS here")
    # 1 unless the caller set OPENBLAS_NUM_THREADS explicitly.
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
