"""One BLAS thread while an isogeo command or pool worker runs.

isogeo's products are at most a few thousand rows by a few dozen columns:
BLAS is well under a tenth of any workload, but at 4,096 rows OpenBLAS
hands each product to a second thread, which then spins through the
numpy work around it.  Only the OpenBLAS that numpy loaded is touched; with
another BLAS, or none found, these helpers do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None.  Looked up once per process, on first use."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def set_one_thread() -> None:
    """Run OpenBLAS on one thread for the rest of the process: the
    initializer of isogeo's pool workers."""
    api = _openblas()
    if api is not None:
        api[1](1)


@contextlib.contextmanager
def one_thread():
    """Run OpenBLAS on one thread inside the block and give back the
    caller's count when it ends, however it ends."""
    api = _openblas()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
