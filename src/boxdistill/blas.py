"""The thread count of the OpenBLAS that numpy runs on, read and set
through ctypes."""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# (getter, setter) symbol names: numpy's own wheels, other 64-bit-integer
# builds, plain builds.
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))
)


def _thread_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's thread-count getter and setter, or None when
    no OpenBLAS is found among the libraries mapped into this process."""
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
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


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
