"""Test-session setup for every test directory of the repository.

BLAS gets one thread, set before numpy is first imported, as in
``perfbench/run.py``. On a small shared machine a BLAS thread pool makes
wall-clock checks (acceptance criteria 7 and 8) depend on what the
neighbours run: with two threads a 512-token unblocked prefill took 23 to
43 ms from one run to the next, against a steady 5.7 ms with one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
