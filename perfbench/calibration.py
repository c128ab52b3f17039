"""A fixed stdlib-only computation that measures the host's current speed.

On a shared host the speed of exact arithmetic drifts by tens of percent
over minutes.  ``run.py`` times this computation in its own process just
before and just after every command, on the same CPU, and divides the
command's wall time by it; the ratio cancels the drift that both share.
Nothing here imports ``burnside``, so a change to the program cannot move
the yardstick.

    python3 perfbench/calibration.py     # print one reference time in s
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

HARMONIC_TERMS = 3000
HARMONIC_REPS = 12
MATRIX_SIDE = 24
MATRIX_REPS = 3


def harmonic() -> Fraction:
    """Small-integer Fraction sums: interpreter and allocator bound."""
    s = Fraction(0)
    for i in range(1, HARMONIC_TERMS):
        s += Fraction(1, i)
    return s


def matrix_square() -> list[list[Fraction]]:
    """A dense product of rationals with 20-bit parts: big-integer bound."""
    rng = random.Random(3)
    n = MATRIX_SIDE
    m = [[Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(n)] for _ in range(n)]
    return [[sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def reference_seconds() -> float:
    """Wall time of one fixed mix of both kernels, about 0.45 s on a 2 GHz Xeon."""
    t0 = time.perf_counter()
    for _ in range(HARMONIC_REPS):
        harmonic()
    for _ in range(MATRIX_REPS):
        matrix_square()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(reference_seconds())
