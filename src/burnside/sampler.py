"""Stochastic simulation of the primal and dual two-stage updates.

One primal step from a word x: draw g uniform in the stabilizer of x, then a
uniform word fixed by g.  One dual step from g: draw a uniform fixed word,
then a uniform stabilizer element.  Neither step materializes a matrix.

Randomness comes from numpy's counter-based Philox generator keyed by a
64-bit seed; independent chains use disjoint streams of the same seed, so
any (seed, config) pair reproduces its trajectory bit-for-bit.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .actions import (
    ActionSpec,
    Stepper,
    fixed_set_size,
    group_degree,
    group_order,
    orbit_count,
    stabilizer_size,
    word_to_str,
)
from .permgroup import Permutation

__all__ = [
    "make_rng",
    "step_primal",
    "step_dual",
    "ChainRun",
    "EmpiricalLaw",
    "RunResult",
    "run_chain",
    "empirical_one_step_row",
    "dump_trajectory",
]

PRIMAL = "primal"
DUAL = "dual"


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator; streams of one seed never collide."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= stream < 2**64:
        raise ValueError("stream must fit in 64 bits")
    return np.random.Generator(np.random.Philox(key=seed + (stream << 64)))


def step_primal(spec: ActionSpec, x, rng) -> tuple:
    """One step of the orbit-sampling chain on words."""
    _check_start(spec, PRIMAL, x)
    return Stepper(spec, rng).primal(x)


def step_dual(spec: ActionSpec, g: Permutation, rng) -> Permutation:
    """One step of the dual chain on permutations with nonempty fixed sets."""
    _check_start(spec, DUAL, g)
    return Permutation(Stepper(spec, rng).dual(g.images))


def _check_start(spec: ActionSpec, chain: str, start) -> None:
    """A primal start is a word of n letters in 1..k; a dual start is a
    permutation of the group degree with a nonempty fixed set."""
    if chain == PRIMAL:
        letters = range(1, spec.k + 1)
        if not isinstance(start, tuple) or len(start) != spec.n or any(a not in letters for a in start):
            raise ValueError(f"invalid start: {start!r} is not a word of {spec.n} letters in 1..{spec.k}")
    elif not isinstance(start, Permutation) or start.degree != group_degree(spec):
        raise ValueError(f"invalid start: {start!r} is not a permutation of 1..{group_degree(spec)}")
    elif fixed_set_size(spec, start) == 0:
        raise ValueError(f"invalid start: {start} is a derangement")


@dataclass(frozen=True)
class ChainRun:
    spec: ActionSpec
    chain: str  # "primal" | "dual"
    start: object
    steps: int
    seed: int
    stream: int = 0
    thin: int = 1

    def __post_init__(self) -> None:
        if self.chain not in (PRIMAL, DUAL):
            raise ValueError("chain must be 'primal' or 'dual'")
        if self.steps < 0 or self.thin < 1:
            raise ValueError("need steps >= 0 and thin >= 1")
        _check_start(self.spec, self.chain, self.start)


@dataclass
class EmpiricalLaw:
    counts: dict
    total: int

    def tv_to(self, law: dict) -> float:
        """TV between the empirical frequencies and an exact law."""
        states = set(self.counts) | set(law)
        return sum(abs(self.counts.get(s, 0) / self.total - float(law.get(s, 0))) for s in states) / 2


@dataclass
class RunResult:
    run: ChainRun
    law: EmpiricalLaw
    final_state: object
    tv_to_stationary: float
    trajectory: Optional[list] = field(default=None, repr=False)


def _tv_to_stationary(spec: ActionSpec, chain: str, law: EmpiricalLaw) -> float:
    """Exact TV between the occupation law and pi(s) = w(s) / W, where
    w(g) = |X_g| (dual) or w(x) = |G_x| (primal) and W = |G| z sums w over
    all states; the states never visited carry W minus the visited weight.
    |G_x| depends on x through its letter counts alone, and the counts of
    letters 1..k-1 fix them (they add up to n), so the primal weight is
    found once per such histogram; each distinct (w, count) pair is summed
    once."""
    big_w, total = group_order(spec) * orbit_count(spec), law.total
    pairs: Counter = Counter()
    if chain == DUAL:
        for g, c in law.counts.items():
            pairs[fixed_set_size(spec, g), c] += 1
    else:
        letters, weights = range(1, spec.k), {}
        for x, c in law.counts.items():
            hist = tuple(map(x.count, letters))
            w = weights.get(hist)
            if w is None:
                w = weights[hist] = stabilizer_size(spec, x)
            pairs[w, c] += 1
    acc, unvisited = 0, big_w
    for (w, c), m in pairs.items():
        acc += m * abs(c * big_w - w * total)
        unvisited -= m * w
    return (acc + unvisited * total) / (2 * total * big_w)


def run_chain(run: ChainRun, keep_trajectory: bool = False) -> RunResult:
    """Run the chain on tuples; occupation counts cover every visited state (t = 0..steps)."""
    spec, thin, primal = run.spec, run.thin, run.chain == PRIMAL
    stepper = Stepper(spec, make_rng(run.seed, run.stream))
    step, state = (stepper.primal, run.start) if primal else (stepper.dual, run.start.images)
    counts: dict = {state: 1}
    trajectory = [state] if keep_trajectory else None
    for t in range(1, run.steps + 1):
        state = step(state)
        if t % thin == 0:
            counts[state] = counts.get(state, 0) + 1
            if keep_trajectory:
                trajectory.append(state)
    if not primal:  # dual states become Permutations here, one per distinct state
        named = {s: Permutation(s) for s in counts}
        counts = {named[s]: c for s, c in counts.items()}
        state = named.get(state) or Permutation(state)
        trajectory = [named[s] for s in trajectory] if keep_trajectory else None
    law = EmpiricalLaw(counts, sum(counts.values()))
    return RunResult(run, law, state, _tv_to_stationary(spec, run.chain, law), trajectory)


def empirical_one_step_row(
    spec: ActionSpec, chain: str, start, draws: int, seed: int, stream: int = 0
) -> EmpiricalLaw:
    """Law of a single step from a fixed start, over independent draws."""
    _check_start(spec, chain, start)
    stepper = Stepper(spec, make_rng(seed, stream))
    step, start = (stepper.primal, start) if chain == PRIMAL else (stepper.dual, start.images)
    counts: dict = {}
    for _ in range(draws):
        y = step(start)
        counts[y] = counts.get(y, 0) + 1
    if chain == DUAL:
        counts = {Permutation(s): c for s, c in counts.items()}
    return EmpiricalLaw(counts, draws)


def dump_trajectory(path: str, result: RunResult) -> None:
    """One state per line in the text formats; gzip when path ends in .gz,
    with a zero modification time, so equal runs write equal bytes."""
    if result.trajectory is None:
        raise ValueError("run_chain was called without keep_trajectory")
    label = str if result.run.chain == DUAL else lambda x: word_to_str(result.run.spec, x)
    data = ("\n".join(map(label, result.trajectory)) + "\n").encode()
    if path.endswith(".gz"):
        # imported here: gzip and zlib add about 0.3 MB of peak RSS to every
        # command that loads the sampler, and only this branch needs them
        import gzip

        data = gzip.compress(data, mtime=0)
    with open(path, "wb") as fh:
        fh.write(data)


def summary_json(result: RunResult) -> str:
    """The run's parameters and its counts, keyed by state label in the
    order of str(state): the bytes of json.dumps(payload, indent=2), with
    the counts written by one join instead of the pure-Python indenting
    encoder.  Labels (digits, commas, cycle notation) need no escaping."""
    run, counts = result.run, result.law.counts
    spec = run.spec
    label = str if run.chain == DUAL else lambda x: word_to_str(spec, x)
    # the labels order the states as str(state) does when they are str(state)
    # (dual) or one digit per letter of equal-length words (k <= 9)
    if run.chain == DUAL or spec.k <= 9:
        rows = sorted([(label(s), c) for s, c in counts.items()])
    else:
        rows = [row[1:] for row in sorted([(str(s), label(s), c) for s, c in counts.items()])]
    head = json.dumps(
        {
            "model": spec.model,
            "n": spec.n,
            "k": spec.k,
            "chain": run.chain,
            "start": label(run.start),
            "steps": run.steps,
            "seed": run.seed,
            "stream": run.stream,
            "thin": run.thin,
            "final_state": label(result.final_state),
            "total_counted": result.law.total,
            "distinct_states_visited": len(counts),
        },
        indent=2,
    )
    body = ",\n".join([f'    "{name}": {c}' for name, c in rows])
    tv = json.dumps(result.tv_to_stationary)
    return f'{head[:-2]},\n  "counts": {{\n{body}\n  }},\n  "tv_to_stationary": {tv}\n}}'
