"""One process-wide heap policy: keep the training step's memory mapped.

A training step frees its activations, patch matrices and gradients at
the end of the backward pass and allocates the same sizes again in the
next forward.  With glibc's default policy the freed top of the heap is
trimmed back to the kernel (``M_TRIM_THRESHOLD`` follows the dynamic
``M_MMAP_THRESHOLD``, 128 KiB to start), so every step pays a minor page
fault per page it re-touches: 3,600-4,100 per bench ResNet-8 step at
batch 50, against about 8 when the heap is kept.

:func:`keep_heap_mapped` fixes both thresholds at :data:`THRESHOLD`.  A
buffer of up to 32 MiB is then served from the heap, and the heap keeps
up to 32 MiB of free space at its top instead of returning it.  Larger
buffers (paper-scale patch matrices) still get their own ``mmap``.  Only
where the bytes live changes, never their values.  ``import repro``
applies the policy once; forked pool workers inherit it and spawned ones
import it.  It is a no-op where the C library exports no ``mallopt``
(macOS, musl).
"""

from __future__ import annotations

import ctypes
import logging
import os
from typing import Optional

__all__ = ["THRESHOLD", "keep_heap_mapped"]

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: Bytes: the largest heap-served allocation and the free top kept mapped.
THRESHOLD = 32 * 1024 * 1024

_log = logging.getLogger(__name__)


def keep_heap_mapped(libc: Optional[ctypes.CDLL] = None) -> bool:
    """Set the mmap and trim thresholds to :data:`THRESHOLD`.

    Parameters
    ----------
    libc:
        The C library to call; defaults to the process's own symbols.

    Returns ``True`` when both ``mallopt`` calls succeeded, ``False`` when
    the library has no ``mallopt`` or refused a setting (then logged).
    Calling it again sets the same values.
    """
    if libc is None:
        if os.name != "posix":
            return False
        libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = True
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        # glibc's mallopt returns 1 on success and 0 on error.
        if mallopt(param, THRESHOLD) != 1:
            _log.warning("mallopt(%d, %d) failed", param, THRESHOLD)
            applied = False
    return applied
