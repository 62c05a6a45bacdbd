"""Pin glibc's malloc thresholds so freed autograd graphs stay in the heap.

The autograd tape is acyclic (see :meth:`repro.nn.tensor.Tensor.backward`),
so each training step frees its whole graph, tens of MB of arrays, the
moment the loss is dropped.  With glibc's dynamic defaults, arrays above the
mmap threshold are unmapped on free and a large free trims the top of the
heap, so the next step faults the same pages back in.  Measured on a 2-vCPU
Linux VM (glibc 2.36), serving arrays from the heap below 32 MiB and
trimming only above 64 MiB of free top space cut a default-size run's minor
page faults from 148k-273k to 30k on the Bayesian NeRF experiment (fig3,
6-11% less wall clock) and from 447k to 84k on the ResNet calibration
experiment (fig2, 15.3 s instead of 17.3 s), at the same peak RSS.

:func:`pin_malloc_thresholds` runs once when :mod:`repro.nn` is imported.
It is a no-op on any C library other than glibc.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["pin_malloc_thresholds"]

# mallopt() parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 64 * 1024 * 1024


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; ``True`` when both were applied."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # not glibc, or no confstr
        glibc = None
    if not glibc:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
