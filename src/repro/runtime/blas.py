"""The process's BLAS thread count: every loaded OpenBLAS copy, read and pinned.

The runtime's kernels load one OpenBLAS copy, numpy's
``libscipy_openblas64_`` (symbol suffix ``64_``); a process that also
imports scipy maps a second one, ``libscipy_openblas``, with a thread pool
of its own.  No copy reads a thread count from anywhere but the
environment at load time, so the runtime finds every loaded copy through
``/proc/self/maps`` and calls that copy's own ``*_set_num_threads`` with
:mod:`ctypes`.

A thread count is process-global: pinning it changes every BLAS call of the
process, the caller's own numpy included.  Forked pool workers pin
themselves to one thread right after the fork
(:mod:`repro.runtime.worker_pool`); the serving engine holds its own
process at one thread while a lane runs a forked replica
(:func:`hold_one_blas_thread`, :mod:`repro.serving.engine`).  Where a loaded
copy exposes no known setter — or the platform has no ``/proc/self/maps``
— the budget is :data:`UNMANAGED` and nothing is changed.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["UNMANAGED", "blas_threads", "hold_one_blas_thread",
           "pin_blas_threads", "release_one_blas_thread"]

#: the budget of a process with a BLAS copy the runtime cannot control
UNMANAGED = "unmanaged"

#: (setter, getter) symbol pairs, tried in order on every loaded copy:
#: numpy's and scipy's ``scipy-openblas`` builds (ILP64, LP64), then the
#: plain OpenBLAS names older wheels and system libraries export
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_copies() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.lower() and line.count(" ") >= 5}
    except OSError:
        return []
    return sorted(path for path in paths if os.path.isfile(path))


#: path -> that copy's ``(set, get)``, or None when it has neither pair
_RESOLVED: Dict[str, Optional[Tuple[object, object]]] = {}


def _resolve(path: str) -> Optional[Tuple[object, object]]:
    if path not in _RESOLVED:
        _RESOLVED[path] = _thread_controls(path)
    return _RESOLVED[path]


def _thread_controls(path: str) -> Optional[Tuple[object, object]]:
    try:
        library = ctypes.CDLL(path)  # already mapped: the same handle
    except OSError:
        return None
    for setter, getter in _SYMBOLS:
        if hasattr(library, setter) and hasattr(library, getter):
            set_threads, get_threads = (getattr(library, setter),
                                        getattr(library, getter))
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _controls() -> Optional[List[Tuple[object, object]]]:
    """``(set, get)`` of every loaded copy, or None if any copy lacks them
    (or none is loaded)."""
    controls = [_resolve(path) for path in _loaded_copies()]
    if not controls or None in controls:
        return None
    return controls


def blas_threads() -> Union[int, str]:
    """The most threads any loaded copy may use, or :data:`UNMANAGED`."""
    controls = _controls()
    if controls is None:
        return UNMANAGED
    return max(int(get()) for _, get in controls)


def pin_blas_threads(threads: int = 1) -> Union[int, str]:
    """Pin every loaded copy to ``threads``; returns :func:`blas_threads`.

    Changes nothing and returns :data:`UNMANAGED` when some copy cannot be
    controlled: a half-pinned process would still oversubscribe, and its
    results would depend on which copy ran a kernel.
    """
    controls = _controls()
    if controls is None:
        return UNMANAGED
    for set_threads, _ in controls:
        set_threads(int(threads))
    return max(int(get()) for _, get in controls)


#: open holds, and the count the first of them found
_holds = 0
_found: Union[int, str] = UNMANAGED
_holds_lock = threading.Lock()


def hold_one_blas_thread() -> Union[int, str]:
    """Pin every loaded copy to one thread until the matching
    :func:`release_one_blas_thread`; returns :func:`blas_threads`.

    Holds nest across every holder in the process: the first records the
    count it found and the last release puts it back, so one holder's
    release never unpins another's.
    """
    global _holds, _found
    with _holds_lock:
        if not _holds:
            _found = blas_threads()
        _holds += 1
        return pin_blas_threads(1)


def release_one_blas_thread() -> Union[int, str]:
    """End one :func:`hold_one_blas_thread`; returns :func:`blas_threads`."""
    global _holds
    with _holds_lock:
        _holds -= 1
        if not _holds and _found != UNMANAGED:
            return pin_blas_threads(_found)
        return blas_threads()
