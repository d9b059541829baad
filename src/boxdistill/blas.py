"""The thread count and the kernel name of the OpenBLAS that numpy runs
on, read and set through ctypes."""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# (prefix, suffix) of the symbol names: numpy's own wheels, other
# 64-bit-integer builds, plain builds.
_NAMINGS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


def _symbols(*names: str) -> list[Callable] | None:
    """The functions ``names`` (without prefix and suffix) of the loaded
    OpenBLAS, from the first library and naming that has them all, or None
    when no OpenBLAS with them is found among the libraries mapped into
    this process."""
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
        for prefix, suffix in _NAMINGS:
            functions = [getattr(handle, f"{prefix}_{name}{suffix}", None) for name in names]
            if all(f is not None for f in functions):
                return functions
    return None


def _thread_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's thread-count getter and setter, or None."""
    functions = _symbols("get_num_threads", "set_num_threads")
    if functions is None:
        return None
    get, set_ = functions
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def openblas_corename() -> str | None:
    """The kernel the loaded OpenBLAS runs (``SkylakeX``, ``Haswell``...):
    the one it picked for this CPU, or the one ``OPENBLAS_CORETYPE`` named
    when the process started.  None when no OpenBLAS is found."""
    functions = _symbols("get_num_threads", "get_corename")
    if functions is None:
        return None
    get = functions[1]
    get.restype, get.argtypes = ctypes.c_char_p, []
    return get().decode()


def openblas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when none is found."""
    functions = _thread_functions()
    return None if functions is None else int(functions[0]())


@contextmanager
def openblas_threads_set(n: int) -> Iterator[None]:
    """Run the block with OpenBLAS on ``n`` threads, then restore the count
    it had, also when the block raises.  Without a loaded OpenBLAS the
    block runs as it is."""
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)
