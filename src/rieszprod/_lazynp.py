"""numpy, imported the first time a command touches an array.

Every layer imports this module as ``np``.  The first read of a name from it
(PEP 562 ``__getattr__``) imports numpy and stores numpy's value under that
name here, so every later read of the name is a plain module attribute read.
"""

import os
import sys


def __getattr__(name: str):
    # BLAS gets one thread unless the caller set OPENBLAS_NUM_THREADS: no
    # command makes a BLAS call worth a second one, and OpenBLAS's helper
    # would spin on a CPU the array kernels use (core._split).  numpy reads
    # the variable when it loads; the environment is then put back as it was.
    if "OPENBLAS_NUM_THREADS" in os.environ or "numpy" in sys.modules:
        import numpy
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    globals()[name] = value = getattr(numpy, name)
    return value
