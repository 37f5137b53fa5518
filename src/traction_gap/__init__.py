"""Load compatibility, rotation kernels, and energy-gap certification for
pure-traction elasticity on cylinder and ball presets.

Each name is imported from its own module (``traction_gap.loads``,
``traction_gap.limits``, ...); the package itself holds only the BLAS thread
defaults, ``__version__`` and ``active_backend``."""

import os as _os

# One BLAS thread unless the caller chose otherwise.  Every system is factored
# in parity blocks of at most 196 rows, where a second OpenBLAS thread does not
# pay: with two threads some 30- to 40-row eigh calls stall, for 5 to 30 ms
# against at most 0.5 ms on one thread (2 cores).  OpenBLAS reads these
# variables once, when numpy loads, so this precedes every numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from ._kernels import active_backend  # perfbench reads it from the package
