"""Leg matrices A and B, the kernels Q = AB and K = BA, and stationary laws.

A has one row per dual state g (uniform on the fixed words of g); B has one
row per word x (uniform on the stabilizer of x).  The legs are formed only
inside a kernel builder: ``build_bundle`` forms both, ``build_k_matrix``
only K = BA.  Everything is exact: each matrix is integer numerators over one
denominator per row (see ``ratmat``), and the checks here (detailed balance,
the diagonal identity, the Doeblin floors) compare those integers.  The same
assembly runs for the two concrete models and for tabled test actions.  One
0/1 incidence 1[x in X_g] gives both legs: A is it over its row sums |X_g|,
B its transpose over its column sums |G_x|.  Only ``build_bundle`` forms the
orbit and class keys and the labels.  Each builder checks its spec once, from
closed forms, before any enumeration (``_check_size``, ``permgroup.STATE_CAP``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._rat import Rat
from .actions import (
    ActionSpec,
    TabledAction,
    dual_state_count,
    dual_states,
    fixed_word_indices,
    group_order,
    orbit_key,
    word_count,
    word_to_str,
    words,
)
from .permgroup import STATE_CAP, CapExceeded, _refuse_above
from .ratmat import RationalMatrix

__all__ = [
    "ChainBundle",
    "build_bundle",
    "build_k_matrix",
    "build_q_direct",
    "check_detailed_balance",
    "reversibility_ratio",
    "diagonal_equals_e_column",
    "doeblin_floor",
]

# Entries of the dense matrices one call may form (2**25 int64 entries are
# 256 MiB).
DENSE_BUDGET = 2**25


@dataclass
class ChainBundle:
    """The assembled chain pair for one action.

    Q (on the dual states) and K (on the words) are exact row-stochastic
    matrices with Q = A B and K = B A; piQ and piK are their stationary laws,
    and spectra["Q"] and spectra["K"] their lazy ``spectra.SpectrumReport``s.
    ``M``, ``spectra`` and ``lumped`` are built on first read; ``lumped`` is
    the ``dynamics.LumpedPair`` of the orbits and classes that every such
    lumping reads and ``lump`` checks.
    """

    spec: Optional[ActionSpec]
    duals: list
    states: list
    dual_labels: list[str]
    state_labels: list[str]
    A: RationalMatrix
    B: RationalMatrix
    Q: RationalMatrix
    K: RationalMatrix
    piQ: list
    piK: list
    group_order: int
    orbit_count: int
    state_orbit_keys: list
    dual_class_keys: list
    e_index: int
    @cached_property
    def M(self) -> RationalMatrix:
        """Block-flip matrix [[0, A], [B, 0]]; built on first use."""
        return RationalMatrix.block_flip(self.A, self.B)

    @cached_property
    def lumped(self):
        from .dynamics import LumpedPair, StatePartition  # dynamics imports this module
        keys = (self.state_orbit_keys, self.dual_class_keys)
        return LumpedPair(self, *map(StatePartition.from_keys, keys))

    @cached_property
    def spectra(self) -> dict:
        """The ``spectra.SpectrumReport``s of Q and K; built on first use, so
        a bundle that only exports its matrices never loads ``spectra``."""
        from .spectra import SpectrumReport  # spectra imports this module

        return {
            "Q": SpectrumReport("Q", self.Q, self.piQ),
            "K": SpectrumReport("K", self.K, self.piK),
        }

    @property
    def num_duals(self) -> int:
        return len(self.duals)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def dual_index(self, g) -> int:
        return self._dual_pos[g]

    def __post_init__(self) -> None:
        self._dual_pos = {g: i for i, g in enumerate(self.duals)}

    def fixed_size(self, gi: int) -> int:  # row gi of A is 0/1 over |X_g|
        return int(self.A.den[gi])

    def stab_size(self, xi: int) -> int:  # row xi of B is 0/1 over |G_x|
        return int(self.B.den[xi])

    @property
    def doeblin_delta(self):
        """delta = 1/max|G_x|, the uniform floor both chains share."""
        return Rat(1, int(self.B.den.max()))


def _check_size(source, matrices: str) -> None:
    """Refuse a spec before anything is enumerated: |X| = k^n (unless the
    call forms Q alone) and |G*| against STATE_CAP, then the entries of the
    dense matrices named in matrices (letters of "ABKQ") against
    DENSE_BUDGET.  Sizes are counted only up to 2**64, past which a refusal
    shows a lower bound.  Tabled actions pass."""
    if not isinstance(source, ActionSpec):
        return
    exact = 2**64
    x = word_count(source, exact)
    if matrices != "Q":  # A, B and K have a row or column per word
        _refuse_above("|X| = k^n", x, STATE_CAP, "state cap")
    g = dual_state_count(source, exact)
    _refuse_above("|G*|", g, STATE_CAP, "state cap")
    entries = {"A": g * x, "B": x * g, "K": x * x, "Q": g * g}
    dense = sum(entries[name] for name in matrices)
    _refuse_above(f"dense entries of {', '.join(matrices)}", dense, DENSE_BUDGET, "dense budget")


def _incidence(source) -> tuple[list, list, np.ndarray]:
    """Duals, states, and the 0/1 incidence 1[x in X_g] (a row per dual, a
    column per state), for a spec or a tabled action."""
    if isinstance(source, ActionSpec):
        duals, states = list(dual_states(source)), list(words(source))
        fixed = [fixed_word_indices(source, g) for g in duals]
    elif isinstance(source, TabledAction):
        duals, states = source.duals(), list(source.states)
        fixed = [source.fixed_lists[gi] for gi in source.dual_indices]
    else:
        raise TypeError(f"cannot build kernels from {type(source).__name__}")
    incidence = np.zeros((len(duals), len(states)), dtype=np.int64)
    incidence[np.repeat(np.arange(len(fixed)), [len(f) for f in fixed]), np.concatenate(fixed)] = 1
    return duals, states, incidence


def _legs(incidence: np.ndarray) -> tuple[RationalMatrix, RationalMatrix]:
    """A, the incidence over its row sums |X_g|, and B, its transpose (a view)
    over its column sums |G_x|: a 0/1 row over its count is already canonical."""
    a = RationalMatrix._canonical(incidence, incidence.sum(axis=1))
    return a, RationalMatrix._canonical(incidence.T, incidence.sum(axis=0))


def build_bundle(source) -> ChainBundle:
    """Assemble A, B, Q = AB, K = BA, both stationary laws, and the orbit
    and class keys and labels of the states."""
    _check_size(source, "ABKQ")
    duals, states, incidence = _incidence(source)
    a, b = _legs(incidence)
    q = a @ b
    k = b @ a

    if isinstance(source, ActionSpec):
        order = group_order(source)
        orbit_keys = [orbit_key(source, x) for x in states]
        class_keys = [g.cycle_type() for g in duals]
        state_labels = [word_to_str(source, x) for x in states]
    else:
        order = source.group_order
        orbit_keys = source.orbit_keys()
        ckeys = source.class_keys()
        class_keys = [ckeys[gi] for gi in source.dual_indices]
        state_labels = [str(x) for x in states]

    fixed_sizes, stab_sizes = a.den.tolist(), b.den.tolist()  # |X_g| and |G_x|
    orbit_size = Counter(orbit_keys)
    if any(stab * orbit_size[key] != order for stab, key in zip(stab_sizes, orbit_keys)):
        raise AssertionError("orbit-stabilizer identity |G_x| |orbit(x)| = |G| fails")
    total_fixed = sum(fixed_sizes)
    z, rem = divmod(total_fixed, order)
    if rem:
        raise AssertionError("Burnside average is not an integer")

    pi_q = [Rat(fixed, order * z) for fixed in fixed_sizes]
    pi_k = [Rat(stab, total_fixed) for stab in stab_sizes]

    e_index = next(i for i, g in enumerate(duals) if g.is_identity())

    spec = source if isinstance(source, ActionSpec) else None
    return ChainBundle(
        spec=spec,
        duals=duals,
        states=states,
        dual_labels=[str(g) for g in duals],
        state_labels=state_labels,
        A=a,
        B=b,
        Q=q,
        K=k,
        piQ=pi_q,
        piK=pi_k,
        group_order=order,
        orbit_count=z,
        state_orbit_keys=orbit_keys,
        dual_class_keys=class_keys,
        e_index=e_index,
    )


def build_k_matrix(spec: ActionSpec) -> RationalMatrix:
    """K = B @ A alone, from the two legs; Q is never formed.

    For long words over a small alphabet |X| is far below |G*|, so K is the
    small kernel of the pair (coord 2,8: 256 words against 40320 duals).
    """
    _check_size(spec, "ABK")
    a, b = _legs(_incidence(spec)[2])
    return b @ a


def build_q_direct(spec: ActionSpec) -> RationalMatrix:
    """Q assembled entry-by-entry from the closed forms, never touching A, B.

    Must agree with build_bundle(spec).Q whenever both are feasible.
    """
    from .closedforms import kernel_forms

    _check_size(spec, "Q")
    duals = list(dual_states(spec))
    _, entry = kernel_forms(spec)[0]
    return RationalMatrix.from_rows([[entry(g, h) for h in duals] for g in duals])


def check_detailed_balance(p: RationalMatrix, pi) -> bool:
    """Exact detailed balance pi(i) P(i,j) == pi(j) P(j,i) for all pairs."""
    if p.rows != p.cols or len(pi) != p.rows:
        raise ValueError("dimension mismatch")
    flow = p.scale_rows(pi)  # flow(i, j) = pi(i) P(i, j)
    return flow == flow.transpose()


def reversibility_ratio(bundle: ChainBundle, g, h):
    """Q(g,h)/Q(h,g); equals |X_h|/|X_g| by detailed balance."""
    gi = bundle.dual_index(g) if not isinstance(g, int) else g
    hi = bundle.dual_index(h) if not isinstance(h, int) else h
    forward = bundle.Q[gi, hi]
    backward = bundle.Q[hi, gi]
    if not backward:
        raise ZeroDivisionError("Q(h,g) = 0: ratio undefined")
    ratio = forward / backward
    expected = Rat(bundle.fixed_size(hi), bundle.fixed_size(gi))
    if ratio != expected:
        raise AssertionError(f"reversibility ratio {ratio} != |X_h|/|X_g| = {expected}")
    return ratio


def diagonal_equals_e_column(bundle: ChainBundle) -> bool:
    """Q(g,g) == Q(g,e) for every dual state g (one row, one denominator)."""
    q = bundle.Q.num
    return np.array_equal(np.diagonal(q), q[:, bundle.e_index])


def doeblin_floor(bundle: ChainBundle):
    """delta = 1/max|G_u|; asserts Q(g,e) >= delta and K(x,y) >= delta/|X|."""
    delta = bundle.doeblin_delta
    q = bundle.Q
    # Q(g, e) = num[g, e] / den[g] >= 1/max|G_u|
    for gi, (x, d) in enumerate(zip(q.num[:, bundle.e_index].tolist(), q.den.tolist())):
        if delta.denominator * x < d:
            raise AssertionError(f"dual floor violated at row {bundle.dual_labels[gi]}")
    if bundle.K.first_below([delta / bundle.num_states] * bundle.num_states) is not None:
        raise AssertionError("primal floor violated")
    return delta
