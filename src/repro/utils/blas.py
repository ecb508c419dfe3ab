"""Get/set numpy's OpenBLAS thread count via ctypes (no-op if not found)."""

import ctypes
import functools
import glob
import importlib.util
import os

# (getter, setter) pairs probed in order: scipy-openblas wheels, plain OpenBLAS.
_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _library_paths() -> list:
    """OpenBLAS objects already mapped into this process, then numpy.libs."""
    maps = "/proc/self/maps"
    with open(maps if os.path.exists(maps) else os.devnull) as lines:
        paths = [line.split(maxsplit=5)[-1].strip() for line in lines]
    numpy_dir = os.path.dirname(importlib.util.find_spec("numpy").origin)
    paths += sorted(glob.glob(os.path.join(numpy_dir + ".libs", "*openblas*")))
    return [p for p in dict.fromkeys(paths) if "openblas" in os.path.basename(p)]


@functools.cache
def _thread_api():
    for path in _library_paths():
        for getter, setter in _THREAD_API:
            try:
                library = ctypes.CDLL(path)
                get, put = getattr(library, getter), getattr(library, setter)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put


def blas_threads() -> "int | None":
    """This process's OpenBLAS thread count (``None``: library not found)."""
    api = _thread_api()
    return None if api is None else api[0]()


def set_blas_threads(n: int) -> None:
    """Set this process's OpenBLAS thread count (no-op if not found)."""
    api = _thread_api()
    if api is not None:
        api[1](int(n))
