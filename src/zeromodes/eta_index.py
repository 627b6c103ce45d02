"""Eta invariants of the boundary operators and the index on a disc with holes.

For the model operator with spectrum {n - c : n integer} the eta invariant is
elementary:

    eta = -1 + 2<c>   for non-integer c, 0 otherwise,

with <c> = c - floor_strict(c) the unique representative of c in (0, 1),
exact for a Fraction.  The partial eta function
eta_s at positive s is computed by pairing (n-<c>)^{-s} - (n+<c>)^{-s} and
accelerating with the per-interval integral correction

    rho(s, c, n) = (n-c)^{-s} - (n+c)^{-s}
                 - int_n^{n+1} [(x-c)^{-s} - (x+c)^{-s}] dx,

which decays like s(s+1) c n^{-s-2}, so

    eta_s = -<c>^{-s} + sum_{n<=N} rho(s, c, n)
          + [(1+c)^{1-s} - (1-c)^{1-s}] / (1-s)

up to a tail below c*s*N^{-s-1} + 11|s(s+1)| N^{-s-2}.  The closed tail
integral is the analytic continuation to s in (-1, 1), so the formula reaches
s = 0 smoothly; the reference continuation to s = 0 is done by Richardson
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

from ._numpy import np
from .aps_boundary import Chirality
from .errors import DomainError
from .conformal import flat_problem
from .field import FieldSpec, KernelChoice, flux_over_2pi
from .geometry import DomainKind, DomainSpec
from .numutil import HALF, floor_strict, integer_at, threshold_sum
from .zero_modes import count_zero_modes

# terms one eta series may sum, so every config does a bounded amount of work
MAX_ETA_TERMS = 1_000_000
# Richardson levels and series terms of the continuation to s = 0: four levels
# keep the extrapolation error below 1e-3 even for the steep representatives
# (three levels leave ~(ln 8)^3/6 * s1*s2*s3 = 1.5e-3 at c = 1/8)
DEFAULT_S_VALUES = (0.2, 0.1, 0.05, 0.025)
DEFAULT_N_TERMS = 4000


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


def rho_term(s: float, c_unit: float, n) -> np.ndarray:
    """Integral-corrected term of the eta series; c_unit must lie in (0, 1)."""
    n = np.asarray(n, dtype=float)
    direct = (n - c_unit) ** (-s) - (n + c_unit) ** (-s)
    if s == 1.0:
        integral = (np.log(n + 1 - c_unit) - np.log(n - c_unit)
                    - np.log(n + 1 + c_unit) + np.log(n + c_unit))
    else:
        p = 1.0 - s
        integral = (
            (n + 1 - c_unit) ** p - (n - c_unit) ** p
            - (n + 1 + c_unit) ** p + (n + c_unit) ** p
        ) / p
    return direct - integral


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
    """Accelerated partial eta function at finite s > -1 with its truncation bound.

    DomainError when s is outside that range or a term overflows the float
    range (large s makes <c>^{-s} overflow).
    """
    _check_s(s)
    if not 8 <= n_terms <= MAX_ETA_TERMS:
        raise ValueError(f"eta series needs 8 to {MAX_ETA_TERMS} terms, got {n_terms}")
    if integer_at(c) is not None:
        raise ValueError("eta series takes non-integer c; integers give eta = 0")
    cu = float(threshold_sum(c, -floor_strict(c)))
    n = np.arange(1, n_terms + 1)
    try:
        with np.errstate(over="raise"):
            series = float(np.sum(rho_term(s, cu, n)))
            if s == 1.0:
                integral = math.log((1.0 + cu) / (1.0 - cu))
            else:
                p = 1.0 - s
                integral = ((1.0 + cu) ** p - (1.0 - cu) ** p) / p
            value = -(cu ** (-s)) + series + integral
    except (OverflowError, FloatingPointError):
        raise DomainError(f"eta series overflows the float range at s = {s}") from None
    tail = abs(s) * cu * n_terms ** (-s - 1.0) \
        + 11.0 * abs(s * (s + 1.0)) * n_terms ** (-s - 2.0)
    return EtaSeriesResult(value=value, tail_bound=tail, s=s, n_terms=n_terms)


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


def index_formula(domain: DomainSpec, fld: FieldSpec) -> IndexResult:
    """Assemble the boundary-corrected index; ``index`` is the rounded raw sum.

    Disc domains, and spheres on their projected disc, with the default
    kernel only; hole fluxes enter through their q-normalized values and
    kernel dimensions follow the threshold policy of :mod:`numutil`.
    """
    if domain.kind is DomainKind.PLANE:
        raise ValueError("the index assembly is stated for disc domains")
    domain, fld = flat_problem(domain, fld)
    if fld.kernel_choice is not KernelChoice.DEFAULT:
        raise ValueError("the index assembly uses the default kernel choice")
    q = fld.q_shift
    fluxes = {f"hole{j}": nf.value for j, nf in enumerate(fld.normalized_hole_fluxes)}
    fluxes["outer"] = fld.total_flux

    raw = sum(float(flux_over_2pi(b.flux)) for b in fld.bumps)
    etas: Dict[str, float] = {}
    kers: Dict[str, int] = {}
    for label, phi in fluxes.items():
        c = threshold_sum(flux_over_2pi(phi), q, -HALF)
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


def index_vs_count(domain: DomainSpec, fld: FieldSpec) -> IndexCountReport:
    """Compare the index assembly against the signed zero-mode count.

    Consistent means the raw assembly is an integer equal to the signed
    count.
    """
    idx = index_formula(domain, fld)
    counted = count_zero_modes(domain, fld)
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
