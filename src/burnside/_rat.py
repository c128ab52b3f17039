"""Exact rational scalars.

Every kernel entry, stationary mass and TV distance in this package is an
exact rational.  Matrices and evolving distributions hold them as integer
numerators over one denominator per row (``ratmat``), and exact
elimination (``spectra``) runs on those integer rows; single entries,
closed-form cross checks and the results handed back (polynomial
coefficients, eigenvectors) use ``Rat``, which is Python's
``fractions.Fraction``.  ``BACKEND`` names it for reports.
"""

from __future__ import annotations

from fractions import Fraction as Rat

BACKEND = "fractions"


def rat_str(x) -> str:
    """Canonical "p/q" string (plain "p" when the denominator is 1)."""
    return str(Rat(x))


def parse_rat(s: str):
    """Parse "p/q" or "p" back into an exact rational."""
    s = s.strip()
    if "/" in s:
        p, q = (int(t) for t in s.split("/"))
        if q == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Rat(p, q)
    return Rat(int(s))
