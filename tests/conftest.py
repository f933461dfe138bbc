"""Run the suite on the BLAS thread count that gridcast's users get.

Importing gridcast starts OpenBLAS on one thread unless the caller set a
count, but pytest loads numpy before any test imports gridcast, so that
choice would not bind here. This file is loaded before numpy, and makes
the same choice for the whole test process.
"""
import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
