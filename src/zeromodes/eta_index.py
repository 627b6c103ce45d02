"""Eta invariants of the boundary operators and the index on a disc with holes.

For the model operator with spectrum {n - c : n integer} the eta invariant is
elementary:

    eta = -1 + 2<c>   for non-integer c, 0 otherwise,

with <c> the unique representative of c in (0, 1).  The partial eta function
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

import numpy as np

from .errors import DomainError
from .field import FieldSpec, KernelChoice, flux_over_2pi, normalize_flux, total_flux
from .geometry import DomainKind, DomainSpec
from .numutil import HALF, is_integer_within, threshold_sum, unit_representative

from .zero_modes import Chirality, count_zero_modes

# terms one eta series may sum, so every config does a bounded amount of work
MAX_ETA_TERMS = 1_000_000


def eta_closed(c: Union[float, Fraction]) -> float:
    """Eta invariant of the spectrum {n - c}: -1 + 2<c>, zero for integer c.

    Fraction input is folded exactly, so eta(c) + eta(-c) cancels to zero
    for every rational c, not just dyadic ones.
    """
    if is_integer_within(c):
        return 0.0
    # -1 + 2<c> from the exact ratio in integers, rounded once to a float
    n, d = unit_representative(c).as_integer_ratio()
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


def eta_series(c: Union[float, Fraction], s: float, n_terms: int) -> EtaSeriesResult:
    """Accelerated partial eta function at s > -1 with its truncation bound."""
    if s <= -1.0:
        raise DomainError(f"eta series is defined for s > -1, got {s}")
    if not 8 <= n_terms <= MAX_ETA_TERMS:
        raise ValueError(f"eta series needs 8 to {MAX_ETA_TERMS} terms, got {n_terms}")
    if is_integer_within(c):
        raise ValueError("eta series takes non-integer c; integers give eta = 0")
    cu = float(unit_representative(c))
    n = np.arange(1, n_terms + 1)
    series = float(np.sum(rho_term(s, cu, n)))
    if s == 1.0:
        integral = math.log((1.0 + cu) / (1.0 - cu))
    else:
        p = 1.0 - s
        integral = ((1.0 + cu) ** p - (1.0 - cu) ** p) / p
    value = -(cu ** (-s)) + series + integral
    tail = abs(s) * cu * n_terms ** (-s - 1.0) \
        + 11.0 * abs(s * (s + 1.0)) * n_terms ** (-s - 2.0)
    return EtaSeriesResult(value=value, tail_bound=tail, s=s, n_terms=n_terms)


def eta_richardson_to_zero(
    c: Union[float, Fraction],
    s_values: Sequence[float] = (0.2, 0.1, 0.05, 0.025),
    n_terms: int = 4000,
) -> float:
    """Eta at s = 0 by Richardson extrapolation from small positive s.

    Assumes the s_values halve from one entry to the next, as the defaults
    do.  Four levels keep the extrapolation error below 1e-3 even for the
    steep representatives (three levels leave ~(ln 8)^3/6 * s1*s2*s3 = 1.5e-3
    at c = 1/8).
    """
    vals = [eta_series(c, s, n_terms).value for s in s_values]
    table = list(vals)
    for level in range(1, len(table)):
        factor = 2.0 ** level
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


def eta_of_scaled(scale: float, c: Union[float, Fraction]) -> float:
    """Eta of the scaled spectrum {scale * (n - c)}: sign(scale) * eta(n - c)."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    return math.copysign(1.0, scale) * eta_closed(c)


# ----------------------------------------------------------------------------
# index of the disc problem
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexResult:
    index: int
    raw: float
    bulk: float
    boundary_eta: Dict[str, float]
    kernel_dims: Dict[str, int]
    endomorphism_term: float


def index_formula(domain: DomainSpec, fld: FieldSpec) -> IndexResult:
    """Assemble the boundary-corrected index; ``index`` is the rounded raw sum.

    Disc domains with the default kernel only; hole fluxes enter through
    their q-normalized values and kernel dimensions follow the threshold
    policy of :mod:`numutil`.
    """
    if domain.kind is not DomainKind.DISC:
        raise ValueError("the index assembly is stated for disc domains")
    if fld.kernel_choice is not KernelChoice.DEFAULT:
        raise ValueError("the index assembly uses the default kernel choice")
    q = fld.q_shift
    fluxes = {f"hole{j}": normalize_flux(phi, q, fld.kernel_choice).value
              for j, phi in enumerate(fld.hole_fluxes)}
    fluxes["outer"] = total_flux(fld, domain)

    bulk = sum(float(flux_over_2pi(b.flux)) for b in fld.bumps)
    etas: Dict[str, float] = {}
    kers: Dict[str, int] = {}
    raw = bulk
    for label, phi in fluxes.items():
        c = threshold_sum(flux_over_2pi(phi), q, -HALF)
        ker = 1 if is_integer_within(c) else 0
        # holes carry the flipped sign; a kernel's zero eta stays +0.0
        eta = eta_closed(c) if label == "outer" or ker else -eta_closed(c)
        etas[label] = eta
        kers[label] = ker
        raw -= 0.5 * (eta + ker)
    endo = (1 - domain.n_holes) * float(q)
    raw += endo
    return IndexResult(
        index=round(raw),
        raw=raw,
        bulk=bulk,
        boundary_eta=etas,
        kernel_dims=kers,
        endomorphism_term=endo,
    )


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
    count; spheres are assembled on their projected disc.
    """
    if domain.kind is DomainKind.SPHERE:
        from .conformal import sphere_to_disc

        red = sphere_to_disc(domain, fld)
        idx = index_formula(red.disc_domain, red.disc_field)
    else:
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
        consistent=is_integer_within(idx.raw) and idx.index == signed,
        assembly=idx,
    )
