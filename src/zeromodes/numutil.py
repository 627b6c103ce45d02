"""The one policy for threshold decisions: three primitives.

Every count, admissible index set, gauge fold and index in this package turns
on whether some value y = flux/2pi + q +- 1/2 sits on an integer.  Three
functions decide it, and every caller spells its decision with them:

* :func:`threshold_sum` adds the parts of y.  The sum is a Fraction when every
  part is an int or a Fraction, and a float otherwise.
* :func:`integer_at` says which integer y sits on, if any: exactly for a
  Fraction, and within ``INT_DETECTION_TOL`` for a float, so a float that
  carries rounding from an intended threshold counts as on it.
* :func:`floor_strict` is the biggest integer *strictly* smaller than y, so
  floor_strict(2) = 1, with ties decided by :func:`integer_at`.  It spells
  every other rounding: ceil(y) = floor_strict(y) + 1, floor(y) =
  -floor_strict(-y) - 1, and the representative in (0, 1) of a non-integer
  c is threshold_sum(c, -floor_strict(c)).

Exact (int or Fraction) values are decided on their numerator and
denominator in integer arithmetic, so a threshold costs a few integer
operations and at most one new Fraction, not a chain of Fraction operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Real = Union[int, float, Fraction]

# absolute tolerance for "is this float an integer" decisions
INT_DETECTION_TOL = 1e-12

HALF = Fraction(1, 2)

_EXACT = (int, Fraction)


def threshold_sum(*parts: Real) -> Real:
    """Sum of the parts, a Fraction when all are int or Fraction, else a float.

    Exact parts are added as numerators over the lcm of their denominators,
    and the one Fraction is built at the end.
    """
    num, den = 0, 1
    for p in parts:
        if not isinstance(p, _EXACT):
            return sum(float(p) for p in parts)
        n, d = p.numerator, p.denominator
        if d != den:
            lcm = math.lcm(den, d)
            num, n, den = num * (lcm // den), n * (lcm // d), lcm
        num += n
    return Fraction(num, den)


def integer_at(y: Real) -> Optional[int]:
    """The integer y sits on, exactly for int/Fraction and within tolerance for floats."""
    if isinstance(y, _EXACT):
        return y.numerator if y.denominator == 1 else None
    k = round(y)
    return k if abs(y - k) <= INT_DETECTION_TOL else None


def floor_strict(y: Real) -> int:
    """Biggest integer strictly less than y (so floor_strict(2) == 1)."""
    if isinstance(y, _EXACT):
        return -(-y.numerator // y.denominator) - 1  # ceil(y) - 1
    k = integer_at(y)
    return k - 1 if k is not None else math.floor(y)

