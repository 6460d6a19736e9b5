"""Flag Kneser graph toolkit: finite-geometry constructions, certificates, checks."""

__version__ = "0.1.0"

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
