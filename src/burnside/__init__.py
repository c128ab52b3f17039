"""Exact kernels, spectra, mixing bounds and samplers for the classical and
dual orbit-sampling (Burnside) chains on two symmetric-group actions.

The names below are imported from their modules on first use (PEP 562), so
``import burnside`` loads no submodule and ``burnside sample`` loads the
sampler stack alone."""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> (module, attribute)
_EXPORTS = {
    "ActionSpec": ("actions", "ActionSpec"),
    "ChainBundle": ("kernels", "ChainBundle"),
    "EXACT_BACKEND": ("_rat", "BACKEND"),
    "Permutation": ("permgroup", "Permutation"),
    "Rat": ("_rat", "Rat"),
    "RationalMatrix": ("ratmat", "RationalMatrix"),
    "TabledAction": ("actions", "TabledAction"),
    "build_bundle": ("kernels", "build_bundle"),
    "build_q_direct": ("kernels", "build_q_direct"),
    "coord_spec": ("actions", "coord_spec"),
    "parse_perm": ("permgroup", "parse_perm"),
    "value_spec": ("actions", "value_spec"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value
