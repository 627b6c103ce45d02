"""Eta invariants of the boundary operators and the index on a disc with holes.

For the model operator with spectrum {n - c : n integer} the eta invariant is
elementary:

    eta = -1 + 2<c>   for non-integer c, 0 otherwise,

with <c> = c - floor_strict(c) the unique representative of c in (0, 1),
exact for a Fraction.  The partial eta function is the Hurwitz difference
eta_s = zeta(s, 1-<c>) - zeta(s, <c>) (DLMF 25.11).  With
f(x) = (x-<c>)^{-s} - (x+<c>)^{-s} and a = N + 1 it is summed as

    eta_s = -<c>^{-s} + sum_{n<a} f(n) + int_a^oo f + f(a)/2
          - sum_{k<=5} B_2k/(2k)! f^(2k-1)(a),

the Euler-Maclaurin formula of the tail (DLMF 2.10.1).  As f^(12) keeps one
sign, its remainder is below 2|B_12|/12! |f^(11)(a)|, under 2e-16 at the
default N = 16 for s in (-1, 2]; the stated bound adds the rounding of the
terms and of <c>, which grows with |s| and the terms' sizes.  The tail
integral [(a+<c>)^{1-s} - (a-<c>)^{1-s}] / (1-s), log((a+<c>)/(a-<c>)) at
s = 1, is the analytic continuation to s in (-1, 1), so the formula reaches
s = 0 smoothly; the reference continuation to s = 0 is Richardson
extrapolation over small positive s.

The index of the Dirac operator on a disc with holes, boundary operator
shifted by q, assembles as

    ind = Phi_0/2pi - (1/2) sum_j (eta_j + ker_j) - (1/2)(eta_out + ker_out)
        + (1 - N) q,

with eta_j = 1 - 2<flux'_j/2pi - 1/2 + q> on the holes (sign flipped on the
outer circle; both are :func:`eta_closed` of the bracket argument, so every
table prints the same eta for the same argument) and kernel dimensions 1
exactly when the bracket argument is an integer, as decided by
:func:`numutil.integer_at`.  The index is the raw assembly rounded to the
nearest integer.  It is checked against the zero-mode count, not against a
closed formula: :func:`index_vs_count` calls the two consistent only when the
raw value is an integer equal to the signed count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Union

from .aps_boundary import Chirality
from .errors import DomainError
from .conformal import Problem
from .field import KernelChoice, flux_over_2pi
from .geometry import DomainKind
from .numutil import HALF, floor_strict, integer_at, threshold_sum
from .zero_modes import count_zero_modes

__all__ = [
    "EtaSeriesResult", "IndexCountReport", "IndexResult", "eta_closed",
    "eta_richardson_to_zero", "eta_series", "index_formula", "index_vs_count",
]

# terms one eta series may sum, so every config does a bounded amount of work
MAX_ETA_TERMS = 10_000
# Richardson levels and series terms of the continuation to s = 0: four levels
# keep the extrapolation error below 1e-3 even for the steep representatives
# (three levels leave ~(ln 8)^3/6 * s1*s2*s3 = 1.5e-3 at c = 1/8)
DEFAULT_S_VALUES = (0.2, 0.1, 0.05, 0.025)
DEFAULT_N_TERMS = 16
# B_2k/(2k)! for k = 1..5, and the remainder's 2|B_12|/12! (DLMF Table 24.2.1, 2.10.1)
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
_EM_REMAINDER = 2 * 691 / 1307674368000
_UNIT_ROUNDOFF = 2.0 ** -53
# each boundary's bracket argument flux/2pi + q - 1/2, its -1/2 built once
_MINUS_HALF = -HALF


def eta_closed(c: Union[float, Fraction]) -> float:
    """Eta invariant of the spectrum {n - c}: -1 + 2<c>, zero for integer c.

    Fraction input is folded exactly, so eta(c) + eta(-c) cancels to zero
    for every rational c, not just dyadic ones.
    """
    if integer_at(c) is not None:
        return 0.0
    # -1 + 2<c> from the exact ratio in integers, rounded once to a float
    n, d = threshold_sum(c, -floor_strict(c)).as_integer_ratio()
    return (2 * n - d) / d


@dataclass(frozen=True)
class EtaSeriesResult:
    value: float
    tail_bound: float
    s: float
    n_terms: int


def _check_s(s: float) -> None:
    if not -1.0 < s < math.inf:  # NaN fails this too
        raise DomainError(f"eta series is defined for finite s > -1, got {s}")


def eta_series(c: Union[float, Fraction], s: float, n_terms: int) -> EtaSeriesResult:
    """Partial eta function at finite s > -1, with a bound on its error.

    DomainError when s is outside that range or a term overflows the float
    range (large s makes <c>^{-s} overflow).
    """
    _check_s(s)
    check_c_and_n_terms((c,), n_terms)
    cu = float(threshold_sum(c, -floor_strict(c)))
    a = n_terms + 1

    def jump(j: int) -> float:  # (a - c)^{-s-j} - (a + c)^{-s-j}
        return (a - cu) ** (-s - j) - (a + cu) ** (-s - j)

    try:
        terms = [-(cu ** -s)]
        for n in range(1, a):
            terms += [(n - cu) ** -s, -((n + cu) ** -s)]
        # the tail from a on: its integral, continued through s = 1, ...
        p, log_ratio = 1.0 - s, math.log1p(2.0 * cu / (a - cu))
        terms.append((a - cu) ** p * math.expm1(p * log_ratio) / p if p else log_ratio)
        # ... f(a)/2, and -B_2k/(2k)! f^(2k-1)(a) with f^(j) = (-1)^j (s)_j jump(j)
        terms.append(jump(0) / 2)
        rising = s  # (s)_j, rising factorial
        for j, coeff in zip(range(1, 11, 2), _EM_COEFFS):
            terms.append(coeff * rising * jump(j))
            rising *= (s + j) * (s + j + 1)
        value = math.fsum(terms)
        # 2|B_12|/12! |f^(11)(a)|, and the rounding of each term and of <c>,
        # which moves (1 - <c>)^{-s} by up to |s| u/(1 - <c>) of itself
        tail = _EM_REMAINDER * abs(rising * jump(11)) + _UNIT_ROUNDOFF * (
            (8.0 + 2.0 * abs(s)) * math.fsum(map(abs, terms)) + abs(s) * terms[1] / (1.0 - cu))
    except OverflowError:
        raise DomainError(f"eta series overflows the float range at s = {s}") from None
    return EtaSeriesResult(value=value, tail_bound=tail, s=s, n_terms=n_terms)


def check_c_and_n_terms(c_values: Sequence[Union[float, Fraction]], n_terms: int) -> None:
    """Reject the c values and term count :func:`eta_series` refuses, before
    any series work: an integer c, or fewer than 8 or more than
    ``MAX_ETA_TERMS`` terms (ValueError)."""
    if not 8 <= n_terms <= MAX_ETA_TERMS:
        raise ValueError(f"eta series needs 8 to {MAX_ETA_TERMS} terms, got {n_terms}")
    if any(integer_at(c) is not None for c in c_values):
        raise ValueError("eta series takes non-integer c; integers give eta = 0")


def check_s_values(s_values: Sequence[float]) -> None:
    """Reject s values the eta table cannot use, before any series work.

    Each s must be in the series' domain, finite and > -1 (DomainError), and
    the list must suit Richardson extrapolation to s = 0: not empty, every s
    positive, each entry exactly half the one before (ValueError).
    """
    s_values = list(s_values)
    for s in s_values:
        _check_s(s)
    if not s_values or not all(s > 0.0 for s in s_values):
        raise ValueError(f"Richardson needs finite positive s values, got {s_values}")
    if any(b != a / 2 for a, b in zip(s_values, s_values[1:])):
        raise ValueError(f"Richardson needs s values that halve at every step, got {s_values}")


def eta_richardson_to_zero(
    c: Union[float, Fraction],
    s_values: Sequence[float] = DEFAULT_S_VALUES,
    n_terms: int = DEFAULT_N_TERMS,
) -> float:
    """Eta at s = 0 by Richardson extrapolation from small positive s.

    The s_values must pass :func:`check_s_values`, as the defaults do.
    """
    check_s_values(s_values)
    return richardson_to_zero([eta_series(c, s, n_terms).value for s in s_values])


def richardson_to_zero(values: Sequence[float]) -> float:
    """Richardson extrapolation to s = 0 of eta_s values already summed at s, s/2, ..."""
    table = list(values)
    for level in range(1, len(table)):
        factor = 2.0 ** level
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


# ----------------------------------------------------------------------------
# index of the disc problem
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexResult:
    index: int
    raw: float
    boundary_eta: Dict[str, float]
    kernel_dims: Dict[str, int]


def index_formula(problem: Problem) -> IndexResult:
    """Assemble the boundary-corrected index; ``index`` is the rounded raw sum.

    Disc domains, and spheres on their projected disc, with the default
    kernel only; hole fluxes enter through their q-normalized values and
    kernel dimensions follow the threshold policy of :mod:`numutil`.
    """
    domain, fld = problem.domain, problem.field
    if domain.kind is DomainKind.PLANE:
        raise ValueError("the index assembly is stated for disc domains")
    if fld.kernel_choice is not KernelChoice.DEFAULT:
        raise ValueError("the index assembly uses the default kernel choice")
    q = fld.q_shift
    fluxes = {f"hole{i}": nf.value for i, nf in zip(problem.hole_index, fld.normalized_hole_fluxes)}
    fluxes["outer"] = fld.total_flux

    raw = sum(float(flux_over_2pi(b.flux)) for b in fld.bumps)
    etas: Dict[str, float] = {}
    kers: Dict[str, int] = {}
    for label, phi in fluxes.items():
        c = threshold_sum(flux_over_2pi(phi), q, _MINUS_HALF)
        ker = 1 if integer_at(c) is not None else 0
        # holes carry the flipped sign; a kernel's zero eta stays +0.0
        eta = eta_closed(c) if label == "outer" or ker else -eta_closed(c)
        etas[label] = eta
        kers[label] = ker
        raw -= 0.5 * (eta + ker)
    raw += (1 - domain.n_holes) * float(q)
    return IndexResult(index=round(raw), raw=raw, boundary_eta=etas, kernel_dims=kers)


@dataclass(frozen=True)
class IndexCountReport:
    index: int
    signed_count: int
    count: int
    chirality: Chirality
    consistent: bool
    assembly: IndexResult


def index_vs_count(problem: Problem) -> IndexCountReport:
    """Compare the index assembly against the signed zero-mode count.

    Consistent means the raw assembly is an integer equal to the signed
    count.
    """
    idx = index_formula(problem)
    counted = count_zero_modes(problem)
    signed = {
        Chirality.UP: counted.count,
        Chirality.DOWN: -counted.count,
        Chirality.NONE: 0,
    }[counted.chirality]
    return IndexCountReport(
        index=idx.index,
        signed_count=signed,
        count=counted.count,
        chirality=counted.chirality,
        consistent=integer_at(idx.raw) is not None and idx.index == signed,
        assembly=idx,
    )
