"""Exact rational scalar backend.

Every kernel entry, stationary mass and TV distance in this package is an
exact rational.  Matrices and evolving distributions hold them as integer
numerators over one denominator per row (``ratmat``); single entries,
closed-form cross checks and exact elimination use the rational type chosen
here.  When gmpy2 is installed we use its compiled GMP-backed ``mpq``;
otherwise we fall back to the pure-Python ``fractions.Fraction``.  The two
backends are value-compatible (equal hashes, equal string form), so
everything downstream is backend-agnostic.

Set ``BURNSIDE_EXACT_BACKEND=fractions`` (or ``gmpy2``) to force a backend;
the default is gmpy2 when importable.  ``perfbench/run.py`` measures the
exact layers under ``fractions``.
"""

from __future__ import annotations

import os
from fractions import Fraction

_requested = os.environ.get("BURNSIDE_EXACT_BACKEND", "auto").lower()

if _requested in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat  # type: ignore[import-untyped]

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        Rat = Fraction
        BACKEND = "fractions"
elif _requested in ("fractions", "python", "fraction"):
    Rat = Fraction
    BACKEND = "fractions"
else:
    raise ValueError(f"unknown BURNSIDE_EXACT_BACKEND={_requested!r}")

def rat_str(x) -> str:
    """Canonical "p/q" string (plain "p" when the denominator is 1)."""
    return str(Rat(x))


def parse_rat(s: str):
    """Parse "p/q" or "p" back into an exact rational."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Rat(int(p), int(q))
    return Rat(int(s))
