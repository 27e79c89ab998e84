"""Run the suite on one BLAS thread, as the benchmark and the byte-identity
checks do. Criterion 1 times 400 BLAS-backed norms, and the first wake of
a second OpenBLAS thread costs about a second on a cold start. The thread
count is read when numpy loads, so it must be set before."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
