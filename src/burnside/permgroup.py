"""Permutations of {1..m}: cycle structure, conjugacy, capped enumeration, joint orbits.

Permutations are immutable, stored in one-line form (``images[i]`` is the
image of point ``i+1``).  Only what the two concrete actions need lives here;
there is no general permutation-group machinery.

Text format: disjoint cycle notation with space-separated points, fixed
points omitted, e.g. ``"(1 2)(3 4)"``; the identity prints as ``"e"``.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator

__all__ = [
    "Permutation",
    "CycleType",
    "identity",
    "from_cycles",
    "parse_perm",
    "enumerate_sym",
    "joint_orbits",
    "canonical_sort_key",
    "STATE_CAP",
    "CapExceeded",
]

# The one enumeration limit: S_m here, and the words, dual states and fixed
# sets X_g that kernels and closedforms enumerate.
STATE_CAP = 65536


class CapExceeded(ValueError):
    """A size past an enumeration limit, refused before anything is enumerated."""


def _refuse_above(what: str, size: int, limit: int, limit_name: str) -> None:
    if size > limit:
        # past 2**64 the size is a lower bound (the counts stop there): its magnitude only
        shown = f"= {size}" if size.bit_length() <= 64 else f">= 2**{size.bit_length() - 1}"
        raise CapExceeded(f"{what} {shown} exceeds the {limit_name} {limit}")


# Multiset of cycle lengths, sorted descending, summing to the degree.
CycleType = tuple[int, ...]


class Permutation:
    __slots__ = ("images", "_cycles", "_fixed")

    def __init__(self, images) -> None:
        """One walk over the images finds the cycles and checks that they
        permute 1..m: a walk that leaves the range or meets a point seen
        before, other than its own start, means they do not."""
        images = tuple(images)
        m = len(images)
        seen = [False] * (m + 1)
        cycles = []
        for start in range(1, m + 1):
            if seen[start]:
                continue
            seen[start] = True
            cyc = [start]
            j = images[start - 1]
            while j != start:
                if not 0 < j <= m or seen[j]:
                    raise ValueError(f"not a permutation of 1..{m}: {images}")
                seen[j] = True
                cyc.append(j)
                j = images[j - 1]
            cycles.append(tuple(cyc))
        self.images = images
        self._cycles = tuple(cycles)
        self._fixed = None

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self*other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return len(self._cycles) == len(self.images)

    def fixed_points(self) -> frozenset[int]:
        """The fixed points, built on first use and kept: the closed forms
        and the stationary masses ask for them once per dual pair."""
        if self._fixed is None:
            self._fixed = frozenset(c[0] for c in self._cycles if len(c) == 1)
        return self._fixed

    def moved_points(self) -> frozenset[int]:
        return frozenset(i for c in self._cycles if len(c) > 1 for i in c)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles including fixed points, each starting at its smallest
        element, sorted by smallest element; they partition {1..m}."""
        return self._cycles

    def cycle_type(self) -> CycleType:
        return tuple(sorted((len(c) for c in self._cycles), reverse=True))

    def cycle_count(self) -> int:
        """Total number of cycles, fixed points included; c(e) = degree."""
        return len(self._cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    def __str__(self) -> str:
        moved = [c for c in self._cycles if len(c) > 1]
        if not moved:
            return "e"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in moved)


def identity(m: int) -> Permutation:
    return Permutation(range(1, m + 1))


def from_cycles(m: int, cycles) -> Permutation:
    cycles = [list(c) for c in cycles]
    flat = list(itertools.chain.from_iterable(cycles))
    if len(set(flat)) != len(flat):
        raise ValueError("cycles overlap or repeat points")
    images = list(range(1, m + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= m:
                raise ValueError(f"point {a} out of range 1..{m}")
            images[a - 1] = b
    return Permutation(images)


def parse_perm(s: str, degree: int) -> Permutation:
    """Parse disjoint cycle notation; accepts "e" (or "()") for the identity."""
    s = s.strip()
    if s in ("e", "()", ""):
        return identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad permutation string: {s!r}")
    cycles = []
    for chunk in s[1:-1].split(")("):
        pts = [int(tok) for tok in chunk.replace(",", " ").split()]
        if len(pts) < 2 or len(set(pts)) != len(pts):
            raise ValueError(f"bad cycle in {s!r}")
        cycles.append(pts)
    flat = list(itertools.chain.from_iterable(cycles))
    if len(set(flat)) != len(flat):
        raise ValueError(f"cycles overlap in {s!r}")
    return from_cycles(degree, cycles)


def canonical_sort_key(g: Permutation):
    """Stable dual-state order: identity first, then by (number of moved
    points, canonical cycle form).  For S_3 this yields
    e, (1 2), (1 3), (2 3), (1 2 3), (1 3 2), matching the worked fixtures."""
    moved_cycles = tuple(c for c in g.cycles() if len(c) > 1)
    return (sum(map(len, moved_cycles)), moved_cycles)


def _sym_within_cap(m: int) -> bool:
    """Whether m! <= STATE_CAP; the factorials stop at the first past the
    cap, so any degree is answered at once."""
    return all(factorial(i) <= STATE_CAP for i in range(m + 1))


def enumerate_sym(m: int) -> Iterator[Permutation]:
    """All m! permutations in lexicographic one-line order; refused, before
    any is formed, when m! exceeds STATE_CAP."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    if not _sym_within_cap(m):
        raise ValueError(f"|S_{m}| = {m}! exceeds the state cap {STATE_CAP}")
    return (Permutation(images) for images in itertools.permutations(range(1, m + 1)))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def joint_orbits(g: Permutation, h: Permutation) -> tuple[tuple[int, ...], ...]:
    """Orbits of the subgroup generated by g and h on {1..n}.

    Each block is closed under both generators; blocks are sorted tuples
    ordered by smallest element and partition {1..n}.
    """
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    n = g.degree
    uf = _UnionFind(n)
    for i in range(1, n + 1):
        uf.union(i - 1, g(i) - 1)
        uf.union(i - 1, h(i) - 1)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(uf.find(i), []).append(i + 1)
    return tuple(tuple(b) for b in sorted(blocks.values()))
