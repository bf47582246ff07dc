"""Predicting program-repair patch correctness by scoring how well a
natural-language patch description answers its bug report."""

import ctypes
import os
import sys

# Training and scoring are sequential by design; multi-threaded BLAS only adds
# scheduling jitter (and contention on small kernels). Honor explicit user
# settings, otherwise pin to one thread. Must happen before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# A training batch (128 pairs at max_len 64) allocates and frees tens of MB of
# arrays. By default glibc hands the freed top of its heap back to the OS
# after each batch, and the next batch faults those pages in again (about 11k
# page faults a batch). Keep arrays under 32 MB on the heap and trim it only
# past 256 MB free, unless the environment already tunes malloc. Other C
# libraries lack mallopt or ignore these settings.
_malloc_tuned = any(name.startswith("MALLOC_") for name in os.environ)
if sys.platform.startswith("linux") and not _malloc_tuned:
    try:
        _mallopt = ctypes.CDLL(None).mallopt
        _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass

__version__ = "0.1.0"
