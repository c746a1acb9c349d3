"""Run Python in a fresh process that imports this checkout's relfair.

OpenBLAS reads its thread count once, at load, so a test that compares
results across BLAS thread counts needs one process per count.
"""

import os
import subprocess
import sys

import relfair

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, threads=None):
    """The stdout of ``python *args``, at ``threads`` BLAS threads when given."""
    src = os.path.dirname(os.path.dirname(relfair.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if threads is not None:
        env.update(dict.fromkeys(BLAS_ENV, str(threads)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env,
    ).stdout
