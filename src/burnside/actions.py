"""The two concrete actions on words, plus a generic tabled action for tests.

Value model:       S_k permutes the alphabet symbols of words in [k]^n.
Coordinate model:  S_n permutes the coordinates, (g.x)_i = x at g^-1(i).

Words are stored internally as tuples over {1..k}.  The coordinate model is
displayed with the 0-based alphabet {0..k-1} (so binary words print as
bitstrings), the value model with its 1-based symbols; this relabelling is
presentation-only.

Each model is stated once, in three pieces on colorings that ``_MODELS``
lists, and the stabilizer and fixed-set primitives read them without asking
which model they serve (``stabilizer_size`` reads |G_x| off the letter
counts instead).  A coloring (slot_of, colors, palette) puts the letter
palette[colors[slot_of[p]]] at position p; a word x is the coloring
(range(n), x, range(k + 1)), each position its own slot.

- ``slots(images)``: X_g is the set of colorings of slots by a palette, each
  position by a fixed symbol of g (value model) or each cycle of g by one of
  the k letters (coordinate model), read off g's images (``fixed_slots``);
- ``blocks(coloring)``: G_x of the colored word x is the Young subgroup
  prod Sym(block), S_{k-r} on the symbols x leaves unused, r the number x
  uses (value model), or prod_a S_{m_a} on the positions of each letter a
  (coordinate model) (``stabilizer_blocks``);
- ``word(coloring)``: the colored word as a tuple.

A ``Stepper`` binds one model's pieces and one generator once per chain,
and makes the two uniform draws of a step, and the two fused steps, from
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Iterator, Sequence

import numpy as np

from .combinat import rising_factorial, stirling2, subfactorial
from .permgroup import (
    Permutation,
    _sym_within_cap,
    _UnionFind,
    canonical_sort_key,
    enumerate_sym,
    identity,
)

__all__ = [
    "ActionSpec",
    "Word",
    "value_spec",
    "coord_spec",
    "group_degree",
    "group_order",
    "apply_perm",
    "words",
    "word_index",
    "word_to_str",
    "word_from_str",
    "stabilizer_blocks",
    "fixed_slots",
    "fixed_set_size",
    "enumerate_fixed_words",
    "fixed_word_indices",
    "stabilizer_size",
    "stabilizer_elements",
    "sample_stabilizer_uniform",
    "sample_fixed_word_uniform",
    "Stepper",
    "orbit_key",
    "orbit_count",
    "count_orbits",
    "dual_states",
    "word_count",
    "dual_state_count",
    "TabledAction",
    "random_tabled_action",
]

Word = tuple[int, ...]

VALUE = "value"
COORD = "coord"


@dataclass(frozen=True)
class ActionSpec:
    model: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.model not in (VALUE, COORD):
            raise ValueError(f"model must be 'value' or 'coord', got {self.model!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")

    @property
    def num_states(self) -> int:
        return self.k**self.n


def value_spec(k: int, n: int) -> ActionSpec:
    return ActionSpec(VALUE, n, k)


def coord_spec(k: int, n: int) -> ActionSpec:
    return ActionSpec(COORD, n, k)


def group_degree(spec: ActionSpec) -> int:
    return spec.k if spec.model == VALUE else spec.n


def group_order(spec: ActionSpec) -> int:
    return factorial(group_degree(spec))


def _check_degree(spec: ActionSpec, g: Permutation) -> None:
    if g.degree != group_degree(spec):
        raise ValueError(
            f"permutation degree {g.degree} does not match {spec.model} model degree "
            f"{group_degree(spec)}"
        )


def apply_perm(spec: ActionSpec, g: Permutation, x: Word) -> Word:
    """Act on a word: symbols through g (value) or positions through g^-1 (coord)."""
    _check_degree(spec, g)
    if spec.model == VALUE:
        return tuple(g(a) for a in x)
    inv = g.inverse()
    return tuple(x[inv(i) - 1] for i in range(1, spec.n + 1))


@lru_cache(maxsize=None)
def words(spec: ActionSpec) -> tuple[Word, ...]:
    """All k^n words in lexicographic order."""
    return tuple(itertools.product(range(1, spec.k + 1), repeat=spec.n))


def word_index(spec: ActionSpec, x: Word) -> int:
    """Mixed-radix index of a word under the lexicographic order."""
    idx = 0
    for a in x:
        if not 1 <= a <= spec.k:
            raise ValueError(f"letter {a} out of range 1..{spec.k}")
    for a in x:
        idx = idx * spec.k + (a - 1)
    return idx


# bytes.translate tables taking letter a to the ASCII digit of a - offset
_DIGITS = {
    offset: bytes.maketrans(bytes(range(offset, offset + 10)), b"0123456789")
    for offset in (0, 1)
}


def word_to_str(spec: ActionSpec, x: Word) -> str:
    """One digit per symbol when every symbol is 0..9, else the symbols
    separated by commas."""
    offset = 1 if spec.model == COORD else 0
    # the letters are 1..k, so up to k = 9 + offset each one prints as a digit
    if spec.k <= 9 + offset or (x and max(x) <= 9 + offset):
        return bytes(x).translate(_DIGITS[offset]).decode()
    return ",".join(str(a - offset) for a in x)


def word_from_str(spec: ActionSpec, s: str) -> Word:
    offset = 1 if spec.model == COORD else 0
    s = s.strip()
    # a one-letter word is one token, so a symbol past 9 reads whole
    x = tuple(int(tok) + offset for tok in (s.split(",") if "," in s or spec.n == 1 else s))
    if len(x) != spec.n or any(not 1 <= a <= spec.k for a in x):
        raise ValueError(f"{s!r} is not a word for {spec}")
    return x


# Each model's pieces (see the module docstring), bound to one spec; blocks
# are lists of 0-based points of the group's degree, in ascending order, and
# a model keeps only the blocks its stabilizer_blocks lists.


def _value_model(spec: ActionSpec):
    n, k = spec.n, spec.k
    positions, symbols = range(n), range(k)

    def slots(images: Sequence[int]):
        return positions, n, [i for i, a in enumerate(images, 1) if i == a]

    def blocks(slot_of, colors, palette) -> list[list[int]]:
        used = {palette[c] for c in set(colors)}  # every position is a slot
        return [[a for a in symbols if a + 1 not in used]]

    def word(slot_of, colors, palette) -> Word:
        return tuple([palette[c] for c in colors])

    return slots, blocks, word


def _coord_model(spec: ActionSpec):
    n, k = spec.n, spec.k
    starts, letters = range(n), range(1, k + 1)

    def slots(images: Sequence[int]):
        slot_of = [-1] * n
        count = 0
        for start in starts:
            if slot_of[start] < 0:
                slot_of[start] = count
                j = images[start] - 1
                while slot_of[j] < 0:
                    slot_of[j] = count
                    j = images[j] - 1
                count += 1
        return slot_of, count, letters

    def blocks(slot_of, colors, palette) -> list[list[int]]:
        # both palettes ascend, so color order is letter order
        by_color: list[list[int]] = [[] for _ in range(k + 1)]
        pos = 0
        for s in slot_of:
            by_color[colors[s]].append(pos)
            pos += 1
        return [block for block in by_color if block]

    def word(slot_of, colors, palette) -> Word:
        spelled = [palette[c] for c in colors]
        return tuple([spelled[s] for s in slot_of])

    return slots, blocks, word


_MODELS = {VALUE: _value_model, COORD: _coord_model}


@lru_cache(maxsize=None)
def _model(spec: ActionSpec):
    """spec's (slots, blocks, word), bound to spec."""
    return _MODELS[spec.model](spec)


def _word_blocks(spec: ActionSpec, x: Word) -> list[list[int]]:
    """G_x's blocks of 0-based points: the word x as the coloring
    (range(n), x, range(k + 1))."""
    return _model(spec)[1](range(spec.n), x, range(spec.k + 1))


def stabilizer_blocks(spec: ActionSpec, x: Word) -> list[list[int]]:
    """G_x = prod Sym(block): one block of the symbols x leaves unused (value
    model), or the positions of each letter x uses, in letter order
    (coordinate model)."""
    return [[p + 1 for p in block] for block in _word_blocks(spec, x)]


def fixed_slots(spec: ActionSpec, images: Sequence[int]) -> tuple[Sequence[int], int, Sequence]:
    """X_g as colorings of slots by a palette, read off g's one-line images
    (unchecked): (the slot of each position, the slot count, the palette).
    Each position is a slot and the palette is g's fixed symbols (value
    model), or the slots are g's cycles and the palette is 1..k (coordinate
    model).  Slots are numbered by their smallest position and the palette
    ascends, so colorings in product order are words in lexicographic order."""
    return _model(spec)[0](images)


def fixed_set_size(spec: ActionSpec, g: Permutation) -> int:
    """|X_g| = |palette|^slots: f(g)^n (value model), k^c(g) (coordinate model)."""
    _check_degree(spec, g)
    _, count, palette = fixed_slots(spec, g.images)
    return len(palette) ** count


def _refuse_derangement(images: Sequence[int]) -> None:
    raise ValueError(f"{Permutation(images)} is a derangement: empty fixed-word set")


def enumerate_fixed_words(spec: ActionSpec, g: Permutation) -> Iterator[Word]:
    """All words fixed by g, one per coloring, without scanning the state space."""
    _check_degree(spec, g)
    slot_of, count, palette = fixed_slots(spec, g.images)
    if not palette:
        _refuse_derangement(g.images)
    for colors in itertools.product(palette, repeat=count):
        yield tuple([colors[s] for s in slot_of])


def fixed_word_indices(spec: ActionSpec, g: Permutation) -> np.ndarray:
    """The word indices of X_g, ascending: the sum over slots of (color - 1)
    times the slot's weight, the sum of k^(n-1-pos) over its 0-based
    positions.  Raises ValueError when k^n leaves int64."""
    _check_degree(spec, g)
    if word_count(spec, 2**63) >= 2**63:
        raise ValueError(f"k^n = {spec.k}^{spec.n} word indices do not fit int64")
    slot_of, count, palette = fixed_slots(spec, g.images)
    if not palette:
        _refuse_derangement(g.images)
    weights = [0] * count
    power = 1
    for slot in reversed(slot_of):  # positions n-1 down to 0
        weights[slot] += power
        power *= spec.k
    digits = np.array(palette, dtype=np.int64) - 1
    idx = np.zeros(1, dtype=np.int64)
    for weight in weights:  # slot 0 holds position 0, the leading digit
        idx = (idx[:, None] + digits * weight).ravel()
    return idx


def sample_fixed_word_uniform(spec: ActionSpec, g: Permutation, rng) -> Word:
    """Uniform word in X_g: an i.i.d. uniform color per slot."""
    _check_degree(spec, g)
    return Stepper(spec, rng).fixed_word(g.images)


# Up to this many colours are drawn one next_uint32 call at a time, past it
# by one rng.integers call, whose fixed cost is about ten scalar draws.  On a
# 2-vCPU Xeon VM (Python 3.11, numpy 2.4.6, one pinned CPU, medians of 31
# interleaved timings of two colours) 8, 10 and 12 scalar draws took 0.76,
# 0.85 and 1.08 times one integers call.  At 10, 91% of the steps of a coord
# 2,64 primal chain and 50% of a coord 2,300 one draw scalars.
_SCALAR_DRAWS = 10


class Stepper:
    """The draws and steps of one chain, bound once to (spec, rng).

    ``stabilizer(x)`` is the one-line image tuple of a uniform element of
    G_x: one ``rng.shuffle`` per block of two or more points, the same draws
    as ``rng.permutation(block)``.  ``fixed_word(images)`` is a uniform word
    of X_g: an i.i.d. uniform colour per slot, drawn by ``colors``.  The
    chains' steps make the same two draws in either order, each in one
    pass: ``primal(x)`` reads X_g's slots off the images list the shuffles
    filled, and ``dual(images)`` reads G_x's blocks straight off the slot
    colours, so neither builds the image tuple or the word between its two
    draws.  All four are the model's three pieces (``_MODELS``) around the
    two draws, ``shuffled`` and ``colors``.  Bound before the first step:
    the model's pieces, the identity images, the generator's ``shuffle``
    and ``integers``, its bit generator's ``next_uint32`` and state
    address, and the Lemire threshold of k colours (every coordinate-model
    palette is 1..k).
    """

    __slots__ = ("colors", "fixed_word", "stabilizer", "primal", "dual")

    def __init__(self, spec: ActionSpec, rng) -> None:
        slots, blocks, word = _model(spec)
        # a word x is the coloring (positions, x, letters)
        positions, letters = range(spec.n), range(spec.k + 1)
        identity = list(range(1, group_degree(spec) + 1))
        shuffle, integers = rng.shuffle, rng.integers
        bitgen = rng.bit_generator.ctypes
        next32, state = bitgen.next_uint32, bitgen.state_address
        k, k_threshold = spec.k, (2**32 - spec.k) % spec.k

        def colors(c: int, count: int) -> list[int]:
            """rng.integers(0, c, size=count).tolist(), with the same draws:
            numpy's Lemire rejection on the bit generator's next_uint32, which
            shares the half-word buffer of rng.shuffle (Lemire, ACM TOMACS
            2019).  Unlike numpy's own methods it takes no lock: a generator
            serves one chain."""
            if c == 1:
                return [0] * count
            if count > _SCALAR_DRAWS or c >= 2**32:
                return integers(0, c, size=count).tolist()
            threshold = k_threshold if c == k else (2**32 - c) % c
            drawn = []
            for _ in range(count):
                m = next32(state) * c
                while m & 0xFFFFFFFF < threshold:
                    m = next32(state) * c
                drawn.append(m >> 32)
            return drawn

        def shuffled(blocks: list[list[int]]) -> list[int]:
            """The images of a uniform element of prod Sym(block), each block
            a list of 0-based points."""
            images = identity.copy()
            for block in blocks:
                if len(block) > 1:
                    moved = block.copy()
                    shuffle(moved)
                    for a, b in zip(block, moved):
                        images[a] = b + 1
            return images

        def stabilizer(x: Word) -> tuple[int, ...]:
            return tuple(shuffled(blocks(positions, x, letters)))

        def fixed_word(images: Sequence[int]) -> Word:
            slot_of, count, palette = slots(images)
            if not palette:
                _refuse_derangement(images)
            return word(slot_of, colors(len(palette), count), palette)

        def primal(x: Word) -> Word:
            return fixed_word(shuffled(blocks(positions, x, letters)))

        def dual(images: Sequence[int]) -> tuple[int, ...]:
            slot_of, count, palette = slots(images)
            return tuple(shuffled(blocks(slot_of, colors(len(palette), count), palette)))

        self.colors, self.stabilizer, self.fixed_word = colors, stabilizer, fixed_word
        self.primal, self.dual = primal, dual


def stabilizer_size(spec: ActionSpec, x: Word) -> int:
    """|G_x| = (k - r)! (value model) or prod_a m_a! (coordinate model)."""
    if spec.model == VALUE:
        return factorial(spec.k - len(set(x)))
    return prod(map(factorial, map(x.count, range(1, spec.k + 1))))


def stabilizer_elements(spec: ActionSpec, x: Word) -> Iterator[Permutation]:
    """All of G_x, built constructively; the count matches stabilizer_size."""
    m = group_degree(spec)
    blocks = _word_blocks(spec, x)
    for taus in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = list(range(1, m + 1))
        for block, tau in zip(blocks, taus):
            for a, b in zip(block, tau):
                images[a] = b + 1
        yield Permutation(images)


def sample_stabilizer_uniform(spec: ActionSpec, x: Word, rng) -> Permutation:
    """Uniform element of G_x, drawn constructively (no rejection)."""
    return Permutation(Stepper(spec, rng).stabilizer(x))


def orbit_key(spec: ActionSpec, x: Word):
    """Canonical orbit invariant: position partition (value) or histogram (coord)."""
    if spec.model == VALUE:
        blocks: dict[int, list[int]] = {}
        for pos, a in enumerate(x, start=1):
            blocks.setdefault(a, []).append(pos)
        return tuple(sorted(tuple(b) for b in blocks.values()))
    return tuple(x.count(a) for a in range(1, spec.k + 1))


def orbit_count(spec: ActionSpec) -> int:
    """z = |X/G| in closed form: set partitions of [n] into at most k blocks
    (value) or multisets of size n over k letters (coord).  By Burnside's
    lemma |G| z = sum_g |X_g| = sum_x |G_x|, the normaliser of both
    stationary laws."""
    n, k = spec.n, spec.k
    if spec.model == VALUE:
        return sum(stirling2(n, r) for r in range(min(n, k) + 1))
    return comb(n + k - 1, k - 1)


def count_orbits(spec: ActionSpec) -> int:
    """Number of orbits, by closed form and by the Burnside average.

    The two computations must agree; the Burnside side enumerates the group
    while m! is within the state cap and past it uses the exact fixed-size
    counts aggregated over cycle data.
    """
    n, k = spec.n, spec.k
    closed = orbit_count(spec)
    m = group_degree(spec)
    if _sym_within_cap(m):
        total = sum(fixed_set_size(spec, g) for g in enumerate_sym(m))
    elif spec.model == VALUE:
        total = sum(
            comb(k, s) * subfactorial(k - s) * s**n for s in range(k + 1)
        )
    else:
        total = rising_factorial(k, n)
    average, rem = divmod(total, factorial(m))
    if rem or average != closed:
        raise AssertionError(
            f"Burnside average {total}/{factorial(m)} != closed form {closed}"
        )
    return closed


@lru_cache(maxsize=None)
def dual_states(spec: ActionSpec) -> tuple[Permutation, ...]:
    """G* = {g : X_g nonempty} in the documented canonical order.

    For the value model this drops the derangements of S_k; for the
    coordinate model G* is all of S_n.
    """
    elems = enumerate_sym(group_degree(spec))
    if spec.model == VALUE:
        elems = [g for g in elems if fixed_set_size(spec, g) > 0]
    return tuple(sorted(elems, key=canonical_sort_key))


def word_count(spec: ActionSpec, limit: int) -> int:
    """|X| = k^n when it is at most limit, else a lower bound of it above
    limit; the power stops at the bit length of limit."""
    return spec.k ** min(spec.n, limit.bit_length())


def dual_state_count(spec: ActionSpec, limit: int) -> int:
    """|G*| (n! for the coordinate model, k! - !k for the value model) when
    it is at most limit, else a lower bound of it above limit: the count
    grows with the degree and stops once past limit."""
    count = 0
    for m in range(1, group_degree(spec) + 1):
        count = factorial(m) - (subfactorial(m) if spec.model == VALUE else 0)
        if count > limit:
            break
    return count


class TabledAction:
    """A finite group action stored as an explicit table.

    ``elements`` must be closed under composition and contain the identity;
    states may be any hashable objects.  Used to exercise the model-free
    kernel identities on actions other than the two named models.
    """

    def __init__(self, elements: Sequence[Permutation], states: Sequence, act: Callable):
        elems = sorted(set(elements), key=canonical_sort_key)
        if not elems or not elems[0].is_identity():
            raise ValueError("element list must contain the identity")
        known = set(elems)
        for a in elems:
            for b in elems:
                if a * b not in known:
                    raise ValueError("element list is not closed under composition")
        self.elements: list[Permutation] = list(elems)
        self.states = list(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate states")
        state_pos = {x: i for i, x in enumerate(self.states)}
        self._table: list[list[int]] = []
        for g in self.elements:
            row = []
            for x in self.states:
                y = act(g, x)
                if y not in state_pos:
                    raise ValueError(f"action leaves the state set: {g} . {x} = {y}")
                row.append(state_pos[y])
            self._table.append(row)
        self.fixed_lists: list[list[int]] = [
            [i for i, y in enumerate(row) if y == i] for row in self._table
        ]
        self.dual_indices = [gi for gi, f in enumerate(self.fixed_lists) if f]

    @property
    def group_order(self) -> int:
        return len(self.elements)

    def duals(self) -> list[Permutation]:
        return [self.elements[gi] for gi in self.dual_indices]

    def orbit_keys(self) -> list[int]:
        """A stable orbit id per state (equal ids exactly within one orbit)."""
        uf = _UnionFind(len(self.states))
        for row in self._table:
            for i, j in enumerate(row):
                uf.union(i, j)
        return [uf.find(i) for i in range(len(self.states))]

    def class_keys(self) -> list[int]:
        """Conjugacy class id (within this group) per element."""
        pos = {g: i for i, g in enumerate(self.elements)}
        rep = [-1] * len(self.elements)
        for i, g in enumerate(self.elements):
            if rep[i] >= 0:
                continue
            for a in self.elements:
                rep[pos[a * g * a.inverse()]] = i
        return rep

    def count_orbits(self) -> int:
        total = sum(len(f) for f in self.fixed_lists)
        z, rem = divmod(total, self.group_order)
        if rem:
            raise AssertionError("Burnside average is not an integer")
        return z


def _closure(gens: list[Permutation], cap: int) -> list[Permutation] | None:
    m = gens[0].degree
    seen = {identity(m)}
    frontier = [identity(m)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    if len(seen) > cap:
                        return None
                    nxt.append(b)
        frontier = nxt
    return list(seen)


def random_tabled_action(rng, max_group: int = 24, max_states: int = 64) -> TabledAction:
    """A random genuine action: a small subgroup of S_m on words or points."""
    while True:
        m = int(rng.integers(2, 6))
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            images = [int(v) + 1 for v in rng.permutation(m)]
            gens.append(Permutation(images))
        group = _closure(gens, max_group)
        if group is None:
            continue
        flavor = int(rng.integers(0, 3))
        if flavor == 0:
            # natural action on the m points
            states = list(range(1, m + 1))

            def act(g: Permutation, x: int) -> int:
                return g(x)

        elif flavor == 1:
            # coordinates of [v]^m permuted through g^-1
            v = 2 if 3**m > max_states else int(rng.integers(2, 4))
            if v**m > max_states:
                continue
            states = list(itertools.product(range(v), repeat=m))

            def act(g: Permutation, x: tuple) -> tuple:
                inv = g.inverse()
                return tuple(x[inv(i) - 1] for i in range(1, m + 1))

        else:
            # symbols of [m]^r relabelled through g
            r = 1
            while m ** (r + 1) <= max_states and r < 3:
                r += 1
            states = list(itertools.product(range(1, m + 1), repeat=r))

            def act(g: Permutation, x: tuple) -> tuple:
                return tuple(g(a) for a in x)

        return TabledAction(group, states, act)
