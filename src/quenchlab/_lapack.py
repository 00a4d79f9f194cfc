"""``lapack``: scipy's extension ``scipy.linalg._flapack``, home of dpttrf, dpttrs, dgbtrf and
dgbtrs, loaded by file or reused, not through ``scipy.linalg``, whose init clones numpy
(``numpy.f2py``, ``numpy.testing``) at half a cold CLI start.  On any failure it falls back to
``scipy.linalg.lapack``; either way the routines are ``scipy.linalg.lapack``'s own."""
import importlib.machinery as machinery
import importlib.util
import sys

_NAME = "scipy.linalg._flapack"
try:
    lapack = sys.modules.get(_NAME)
    if lapack is None:  # find_spec locates scipy without importing it
        path = importlib.util.find_spec("scipy").submodule_search_locations[0] + "/linalg/_flapack"
        loader = machinery.ExtensionFileLoader(_NAME, path + machinery.EXTENSION_SUFFIXES[0])
        lapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(_NAME, loader))
        loader.exec_module(lapack)
    lapack.dpttrf, lapack.dpttrs, lapack.dgbtrf, lapack.dgbtrs  # else AttributeError: fall back
    sys.modules[_NAME] = lapack  # a later scipy.linalg import then shares this one copy
except Exception:
    from scipy.linalg import lapack
