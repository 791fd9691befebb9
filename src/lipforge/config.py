"""Process-level knobs shared by the library and the CLI."""

import os

from .errors import InputError


def thread_cap():
    """Thread cap from LIPFORGE_THREADS; 0 means "leave it to the BLAS".

    Invalid values are a configuration error so the CLI can exit 2.
    """
    raw = os.environ.get("LIPFORGE_THREADS")
    if raw is None:
        return 0
    try:
        n = int(raw)
    except ValueError:
        raise InputError("LIPFORGE_THREADS must be an integer, got %r" % raw)
    if n < 0:
        raise InputError("LIPFORGE_THREADS must be >= 0")
    return n


def apply_thread_cap():
    """Propagate the cap to the numeric backends before heavy work starts."""
    n = thread_cap()
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))
    return n
