"""Magnetic field model: radial bulk bumps plus one delta flux per hole.

Fluxes may be given as plain floats or as :class:`PiFlux`, an exact rational
multiple of pi.  The exact form keeps the staircase thresholds (strict-floor
jumps at half-integer values of flux/2pi) free of float drift; everything that
feeds quadrature converts to float at the point of use.

The flux through each hole is only defined up to integer multiples of 2*pi
(gauge freedom), so :func:`normalize_flux` folds it into the canonical
interval determined by the boundary-operator shift q and the kernel choice:

    default kernel:   flux/2pi in [-q - 1/2, -q + 1/2)
    alternate kernel: flux/2pi in (-1/2, 1/2]       (defined for q = 0)

The fold rounds by :func:`numutil.floor_strict`, so a value on an end of the
interval (within ``INT_DETECTION_TOL`` for a float) folds to the closed end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from ._numpy import np
from .errors import SphereFluxMismatch
from .geometry import DomainKind, DomainSpec, _checked_domain
from .numutil import HALF, floor_strict, threshold_sum

TWO_PI = 2.0 * math.pi

# Gauss-Legendre nodes per radial integral of a smooth bump profile
QUADRATURE_ORDER = 96

# largest |bulk + raw hole fluxes| a sphere field may carry
SPHERE_BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class PiFlux:
    """A flux value equal to exactly ``multiplier * pi``."""

    multiplier: Fraction

    def __float__(self) -> float:
        return float(self.multiplier) * math.pi

    @property
    def over_2pi(self) -> Fraction:
        m = self.multiplier
        return Fraction(m.numerator, 2 * m.denominator)

    def __add__(self, other: "PiFlux") -> "PiFlux":
        return PiFlux(self.multiplier + other.multiplier)

    def __neg__(self) -> "PiFlux":
        return PiFlux(-self.multiplier)

    def __repr__(self) -> str:
        return f"PiFlux({self.multiplier}*pi)"


FluxLike = Union[float, int, PiFlux]


def pi_flux(multiplier) -> PiFlux:
    """Exact flux ``multiplier * pi``; multiplier is anything Fraction accepts."""
    return PiFlux(Fraction(multiplier))


def flux_over_2pi(phi: FluxLike) -> Union[float, Fraction]:
    """phi / 2pi, exact for PiFlux inputs."""
    if isinstance(phi, PiFlux):
        return phi.over_2pi
    return float(phi) / TWO_PI


class Profile(Enum):
    UNIFORM_DISC = "uniform"
    SMOOTH_COMPACT = "smooth"


class KernelChoice(Enum):
    DEFAULT = "default"
    ALTERNATE = "alternate"


@dataclass(frozen=True)
class RadialBump:
    """Radial bulk-field component of compact support."""

    center: complex
    support_radius: float
    flux: FluxLike
    profile: Profile = Profile.SMOOTH_COMPACT

    def __post_init__(self):
        if not self.support_radius > 0:
            raise ValueError("bump support radius must be positive")


@dataclass(frozen=True)
class FieldSpec:
    bumps: List[RadialBump] = field(default_factory=list)
    hole_fluxes: List[FluxLike] = field(default_factory=list)
    q_shift: Union[float, Fraction] = 0
    kernel_choice: KernelChoice = KernelChoice.DEFAULT

    @functools.cached_property
    def normalized_hole_fluxes(self) -> Tuple[NormalizedFlux, ...]:
        """Every hole flux folded by :func:`normalize_flux`, once per field."""
        return tuple(normalize_flux(p, self.q_shift, self.kernel_choice)
                     for p in self.hole_fluxes)

    @functools.cached_property
    def total_flux(self) -> FluxLike:
        """Bulk flux plus every normalized hole flux, once per field.

        This is the flux the outer circle sees on a flat (plane or disc)
        problem; a sphere's is the total of its projected disc field
        (``conformal.flat_problem``), the semi-total flux.
        """
        parts: List[FluxLike] = [b.flux for b in self.bumps]
        parts += [nf.value for nf in self.normalized_hole_fluxes]
        return _sum_fluxes(parts) if parts else 0.0


@dataclass(frozen=True)
class NormalizedFlux:
    value: FluxLike
    gauge_integer: int


def normalize_flux(
    phi: FluxLike,
    q: Union[float, Fraction] = 0,
    kernel_choice: KernelChoice = KernelChoice.DEFAULT,
) -> NormalizedFlux:
    """Fold phi by multiples of 2*pi into the canonical interval for (q, kernel)."""
    x = flux_over_2pi(phi)
    if kernel_choice is KernelChoice.ALTERNATE:
        if q != 0:
            raise ValueError("alternate kernel choice is defined for q = 0 only")
        # target (-1/2, 1/2]: m = ceil(x - 1/2), ties at +1/2 stay
        m = floor_strict(threshold_sum(x, -HALF)) + 1
    else:
        # target [-q-1/2, -q+1/2): m = floor(x + q + 1/2), ties at the lower end stay
        m = -floor_strict(-threshold_sum(x, q, HALF)) - 1
    if isinstance(phi, PiFlux):
        value: FluxLike = PiFlux(phi.multiplier - 2 * m)
    else:
        value = float(phi) - TWO_PI * m
    return NormalizedFlux(value=value, gauge_integer=m)


def _sum_fluxes(parts: Sequence[FluxLike]) -> FluxLike:
    """Sum that stays exact when every part is a PiFlux."""
    if parts and all(isinstance(p, PiFlux) for p in parts):
        return PiFlux(threshold_sum(*(p.multiplier for p in parts)))
    return float(sum(float(p) for p in parts))


def bulk_flux(fld: FieldSpec) -> FluxLike:
    return _sum_fluxes([b.flux for b in fld.bumps]) if fld.bumps else 0.0


def check_sphere_flux_balance(fld: FieldSpec) -> None:
    """Raise SphereFluxMismatch unless bulk + all raw hole fluxes sum to zero."""
    total = float(bulk_flux(fld)) + sum(float(p) for p in fld.hole_fluxes)
    if abs(total) > SPHERE_BALANCE_TOL:
        raise SphereFluxMismatch(
            f"total flux on the sphere must vanish, got {total:.3e}"
        )


def validate_field(fld: FieldSpec, domain: DomainSpec) -> List[str]:
    """Containment checks for bump supports; violations returned as messages.

    A sphere is checked on its projected disc (``geometry.projected_disc``),
    and holes are named by their index in ``domain``.
    """
    bad: List[str] = []
    if len(fld.hole_fluxes) != domain.n_holes:
        bad.append(
            f"field carries {len(fld.hole_fluxes)} hole fluxes for {domain.n_holes} holes"
        )
    try:
        flat, index = _checked_domain(domain)
    except ValueError as exc:
        return bad + [str(exc)]
    for bi, b in enumerate(fld.bumps):
        for hi, h in zip(index, flat.holes):
            if not abs(b.center - h.center) > b.support_radius + h.radius:
                bad.append(f"bump {bi} support touches hole {hi}")
        if flat.kind is DomainKind.DISC:
            if not abs(b.center) + b.support_radius < flat.radius_out:
                bad.append(f"bump {bi} support not inside the outer boundary")
    return bad


def smooth_profile_shape(r: np.ndarray, rho: float) -> np.ndarray:
    """Unnormalized bump shape exp(-1/(1-(r/rho)^2)) for r < rho, 0 beyond."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < rho
    x2 = (r[inside] / rho) ** 2
    out[inside] = np.exp(-1.0 / (1.0 - x2))
    return out


@functools.cache
def gauss_nodes() -> Tuple[np.ndarray, np.ndarray]:
    """Order-QUADRATURE_ORDER Gauss-Legendre nodes and weights on [-1, 1]; read only."""
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    # cached and shared by every quadrature: an in-place write would corrupt them all
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.cache
def _smooth_norm_unit() -> float:
    # 2*pi * int_0^1 exp(-1/(1-u^2)) u du, the unit-radius bump's integral,
    # by the Gauss-Legendre rule the potential profiles use (the map from
    # [-1, 1] to [0, 1] halves the weights: 2*pi/2 = pi)
    x, w = gauss_nodes()
    u = 0.5 * (x + 1.0)
    return math.pi * float(np.exp(-1.0 / (1.0 - u * u)) * u @ w)


def smooth_profile_amplitude(bump: RadialBump) -> float:
    """Central density constant C with C * integral(shape) = flux."""
    return float(bump.flux) / (_smooth_norm_unit() * bump.support_radius ** 2)


def eval_B(fld: FieldSpec, z) -> np.ndarray:
    """Smooth field value at z; the hole deltas contribute nothing pointwise."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=float)
    for b in fld.bumps:
        r = np.abs(z - b.center)
        if b.profile is Profile.UNIFORM_DISC:
            out += np.where(r < b.support_radius,
                            float(b.flux) / (math.pi * b.support_radius ** 2), 0.0)
        else:
            out += smooth_profile_amplitude(b) * smooth_profile_shape(r, b.support_radius)
    return out if out.shape else float(out)


def support_radii_from(fld: FieldSpec, center: complex) -> List[float]:
    """Distances from ``center`` at which bump supports begin (for annulus probes)."""
    return [abs(b.center - center) - b.support_radius for b in fld.bumps]


def support_extents_from(fld: FieldSpec, center: complex) -> List[float]:
    """Distances from ``center`` at which bump supports end (outer probes)."""
    return [abs(b.center - center) + b.support_radius for b in fld.bumps]
