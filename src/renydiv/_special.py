"""The three scipy.special ufuncs renydiv uses: ndtr, ndtri and chdtrc.

They come from the compiled scipy.special._ufuncs, without the package's array-API layer
(numpy.f2py, numpy.testing: about 0.24 s of every cold start). While no scipy module is
loaded, unexecuted scipy and scipy.special stand-ins take their places in sys.modules under
the import lock, and every scipy module added leaves again; a later `import scipy.special`
finds the same objects. Any failure takes the public import.
"""
import _imp
import importlib.util
import sys


def _is_scipy(name: str) -> bool:
    return name.partition(".")[0] == "scipy"


def _forward(package: str):
    """A module __getattr__ that reads the attributes of the real package."""
    return lambda attr: getattr(importlib.import_module(package), attr)


def _from_ufuncs():
    _imp.acquire_lock()   # re-entrant: this thread can still import while it holds it
    before, stand_ins = set(sys.modules), []
    try:
        if any(map(_is_scipy, before)):
            raise ImportError("scipy is imported already; take the public path")
        for name in ("scipy", "scipy.special"):
            module = importlib.util.module_from_spec(importlib.util.find_spec(name))
            # another thread's import that finds it waits for the lock, as for any module
            # still loading
            module.__spec__._initializing = True
            sys.modules[name] = module
            stand_ins.append(module)
        from scipy.special._ufuncs import chdtrc, ndtr, ndtri
        return ndtr, ndtri, chdtrc
    finally:
        for name in set(sys.modules) - before:
            if _is_scipy(name):
                del sys.modules[name]
        for module in stand_ins:   # for a thread that took one from sys.modules meanwhile
            module.__getattr__ = _forward(module.__name__)
        _imp.release_lock()


try:
    ndtr, ndtri, chdtrc = _from_ufuncs()
except Exception:  # whatever broke the fast path, the public import gives the same objects
    from scipy.special import chdtrc, ndtr, ndtri
