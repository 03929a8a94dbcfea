"""numpy, imported the first time a command touches an array.

Every layer takes ``np`` from here.  Until an attribute of it is read, ``np``
is a stand-in; that read imports numpy and binds ``np`` to numpy itself in
every loaded module that holds the stand-in, so array code pays no
indirection afterwards.
"""

import os
import sys
import types


class _Numpy:
    def __getattr__(self, name: str):
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
        # a module that LazyLoader has not run yet is no plain ModuleType, and
        # reading its namespace would run it; it takes ``np`` from here later
        for module in list(sys.modules.values()):
            if type(module) is types.ModuleType and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()
