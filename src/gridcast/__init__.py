"""gridcast: short-term residential load forecasting at 5-minute resolution.

The package covers the whole experiment pipeline: CSV ingestion and
weather interpolation, min-max scaling and chronological splitting,
from-scratch MLP and LSTM models trained with Adam and early stopping,
persistence baselines, evaluation metrics with seasonal stratification,
a deterministic synthetic household generator, and a config-driven CLI.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose a count. The network GEMMs are
# small (the LSTM's are 256x51 by 51x200), so a second BLAS thread mostly
# spins. OpenBLAS reads the count once, as numpy loads it, so the variable
# is set only around that import: it binds wherever gridcast is the first
# to load numpy (the CLI, `python -m gridcast.cli`), and neither child
# processes nor BLAS libraries loaded later inherit it. A process that
# loaded numpy earlier keeps its threads.
_choose_threads = ("OPENBLAS_NUM_THREADS" not in os.environ
                   and "OMP_NUM_THREADS" not in os.environ)
if _choose_threads:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy  # noqa: F401
finally:
    if _choose_threads:
        del os.environ["OPENBLAS_NUM_THREADS"]
del _choose_threads
