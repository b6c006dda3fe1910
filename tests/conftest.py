"""Run BLAS on one thread, as the benchmark does.

pytest imports this file before any test module, so these settings are in
place when numpy loads its BLAS library. A value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
