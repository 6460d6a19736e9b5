"""Flag Kneser graph toolkit: finite-geometry constructions, certificates, checks."""

__version__ = "0.1.0"

import importlib.util
import sys


def _lazy_numpy():
    """numpy as a module that loads on its first attribute access (the
    LazyLoader recipe of the importlib docs), or the loaded numpy if some
    import came first.  Every module of the package takes np from here:
    an `import numpy` statement reads the lazy module's __spec__ and so
    loads it at once.  LazyLoader takes no lock, so numpy must first load in
    the main thread: every bulk path touches an array in the FlagUniverse
    build (or the export rows) before run_blocks starts a thread or
    fork_blocks a child."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ImportError("qkneser needs numpy, which is not installed")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


_numpy = _lazy_numpy()  # bound before any submodule takes it

from .gf import FieldSpec, make_field
from .pg import Subspace, dual, enumerate_subspaces, join, meet, rref
from .kneser import Flag, FlagUniverse, enumerate_flags, general_position

__all__ = [
    "FieldSpec",
    "make_field",
    "Subspace",
    "rref",
    "meet",
    "join",
    "dual",
    "enumerate_subspaces",
    "Flag",
    "FlagUniverse",
    "enumerate_flags",
    "general_position",
    "__version__",
]
