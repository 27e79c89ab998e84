"""Run the suite on one BLAS thread, as the benchmark and the byte-identity
checks do. Criterion 1 times 400 BLAS-backed norms, and the first wake of
a second OpenBLAS thread costs about a second on a cold start. The thread
count is read when numpy loads, so it must be set before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_VARS:
    os.environ[var] = "1"


@pytest.fixture
def python():
    """``python(args, **env)``: the stdout of a new interpreter on this
    checkout's abeltv, run with the BLAS variables removed from the
    environment and then ``env`` set; a nonzero exit fails the test."""
    import abeltv

    src = str(Path(abeltv.__file__).resolve().parents[1])

    def run(args, **env) -> str:
        full = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        full["PYTHONPATH"] = os.pathsep.join([src, full.get("PYTHONPATH", "")])
        full.update(env)
        return subprocess.run([sys.executable, *args], env=full, capture_output=True, text=True, check=True).stdout

    return run
