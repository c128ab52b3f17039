"""Exact kernels, spectra, mixing bounds and samplers for the classical and
dual orbit-sampling (Burnside) chains on two symmetric-group actions."""

from ._rat import BACKEND as EXACT_BACKEND
from ._rat import Rat
from .actions import ActionSpec, TabledAction, coord_spec, value_spec
from .kernels import ChainBundle, build_bundle, build_q_direct
from .permgroup import Permutation, parse_perm
from .ratmat import RationalMatrix

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "ChainBundle",
    "EXACT_BACKEND",
    "Permutation",
    "Rat",
    "RationalMatrix",
    "TabledAction",
    "build_bundle",
    "build_q_direct",
    "coord_spec",
    "parse_perm",
    "value_spec",
    "__version__",
]
