"""Stereographic projection, sphere-rotation Moebius transforms, W-dressing.

The projection (composed with a reflection) sends the sphere point at
colatitude theta, longitude phi to 2*cot(theta/2)*exp(-i*phi); the round
metric becomes W^2 (dx^2 + dy^2) with W = (1 + |z|^2/4)^{-1}.  Rotating the
sphere corresponds to a Moebius transform z -> (az+b)/(cz+d) whose
coefficients satisfy a = conj(d), b = -4*conj(c), |a|^2 + 4|c|^2 = 1, and
spinors transport with the unitary diagonal factor
(cz+d)/|cz+d| on the up component and its conjugate below.

W is constant on circles centred at the origin, which is why the spectral
boundary condition survives the sphere -> disc reduction verbatim: a sphere
problem whose designated hole projects to the complement of an origin-centred
disc becomes a flat disc problem, and sphere modes are W^{-1/2} times flat
modes (the Dirac operators differ by D_W = W^{-3/2} D W^{1/2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ._numpy import np
from .errors import NorthPole, PolePoint
from .field import FieldSpec, KernelChoice, check_sphere_flux_balance
from .geometry import DomainKind, DomainSpec, projected_disc

__all__ = [
    "MobiusCoeffs", "Problem", "conformal_factor", "conformal_ratio", "flat_problem",
    "mobius_for_point", "patch_spinor", "sphere_to_disc", "stereo_project",
]


def conformal_factor(z) -> np.ndarray:
    """W(z) = (1 + |z|^2/4)^{-1}, the round-metric factor; W(0) = 1."""
    z = np.asarray(z, dtype=complex)
    return 1.0 / (1.0 + (np.abs(z) ** 2) / 4.0)


def stereo_project(theta: float, phi: float) -> complex:
    """Projected image 2*cot(theta/2)*exp(-i*phi); theta = 0 is the pole."""
    if theta == 0.0:
        raise NorthPole("the projection point itself has no image")
    return 2.0 * math.cos(theta / 2.0) / math.sin(theta / 2.0) * complex(
        math.cos(phi), -math.sin(phi)
    )


@dataclass(frozen=True)
class MobiusCoeffs:
    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        denom = self.c * z + self.d
        if np.any(denom == 0):
            raise PolePoint("Moebius transform evaluated at its pole")
        out = (self.a * z + self.b) / denom
        return complex(out) if out.shape == () else out

    def compose(self, inner: "MobiusCoeffs") -> "MobiusCoeffs":
        """Coefficients of self after inner (matrix product)."""
        return MobiusCoeffs(
            a=self.a * inner.a + self.b * inner.c,
            b=self.a * inner.b + self.b * inner.d,
            c=self.c * inner.a + self.d * inner.c,
            d=self.c * inner.b + self.d * inner.d,
        )

    def rotation_relations_error(self) -> float:
        """Deviation from a = conj(d), b = -4 conj(c), |a|^2 + 4|c|^2 = 1."""
        return max(
            abs(self.a - np.conj(self.d)),
            abs(self.b + 4.0 * np.conj(self.c)),
            abs(abs(self.a) ** 2 + 4.0 * abs(self.c) ** 2 - 1.0),
        )


def mobius_for_point(theta0: float, phi0: float) -> MobiusCoeffs:
    """Sphere rotation along a meridian sending (theta0, phi0) to the pole.

    The image point P(omega) = 2*cot(theta0/2)*exp(-i*phi0) is mapped to
    infinity; the two fixed points are +-2i*exp(-i*phi0).
    """
    ch = math.cos(theta0 / 2.0)
    sh = math.sin(theta0 / 2.0)
    e_minus = complex(math.cos(phi0), -math.sin(phi0))
    e_plus = complex(math.cos(phi0), math.sin(phi0))
    return MobiusCoeffs(a=ch, b=2.0 * e_minus * sh, c=-0.5 * e_plus * sh, d=ch)


def patch_spinor(u2, z2: complex, m: MobiusCoeffs):
    """Transport a spinor value at z2 to the transformed coordinates at Y(z2).

    u1 = |cz+d|^{-1} diag(cz+d, conj(cz+d)) u2; the factor is unitary, so the
    pointwise norm is preserved.
    """
    w = m.c * z2 + m.d
    if w == 0:
        raise PolePoint("spinor patching at the Moebius pole")
    mag = abs(w)
    u2 = np.asarray(u2, dtype=complex)
    return np.array([u2[0] * w / mag, u2[1] * np.conj(w) / mag])


def conformal_ratio(z: complex, m: MobiusCoeffs) -> float:
    """W(z) / W(Y(z)) = |cz + d|^{-2} for sphere-rotation transforms."""
    w = m.c * z + m.d
    if w == 0:
        raise PolePoint("conformal ratio at the Moebius pole")
    return 1.0 / abs(w) ** 2


def sphere_to_disc(domain: DomainSpec, fld: FieldSpec) -> Tuple[DomainSpec, FieldSpec]:
    """Reduce a sphere-with-holes problem to its projected disc problem, whose
    modes times W^{-1/2} are the sphere's.

    The disc is :func:`geometry.projected_disc`, and its field drops the
    designated hole's flux.  Sphere results are stated for q = 0 with the
    default kernel (ValueError otherwise), and the flux data must balance to
    zero over the whole sphere (SphereFluxMismatch otherwise).
    """
    if fld.q_shift != 0 or fld.kernel_choice is not KernelChoice.DEFAULT:
        raise ValueError("sphere results are stated for q = 0 with the default kernel")
    check_sphere_flux_balance(fld)
    disc = projected_disc(domain)
    fluxes = [p for j, p in enumerate(fld.hole_fluxes) if j != domain.omitted_hole]
    return disc, FieldSpec(bumps=list(fld.bumps), hole_fluxes=fluxes,
                           q_shift=fld.q_shift, kernel_choice=fld.kernel_choice)


@dataclass(frozen=True)
class Problem:
    """A flat (plane or disc) problem, as :func:`flat_problem` returns it."""

    domain: DomainSpec
    field: FieldSpec
    # a sphere's projected disc: the config index of the designated hole it
    # leaves out
    omitted_hole: Optional[int] = None

    def __post_init__(self):
        if self.domain.kind is DomainKind.SPHERE:
            raise ValueError("a Problem is flat: reduce a sphere with flat_problem")

    @property
    def dressed(self) -> bool:
        """Whether the modes carry W^{-1/2}: the problem is a sphere's projected disc."""
        return self.omitted_hole is not None

    @property
    def hole_index(self) -> Sequence[int]:
        """The config index of each hole of ``domain``, which names it 'hole<i>':
        a sphere's projected disc skips the designated hole's."""
        om, n = self.omitted_hole, len(self.domain.holes)
        return range(n) if om is None else [*range(om), *range(om + 1, n + 1)]


def flat_problem(domain: DomainSpec, fld: FieldSpec) -> Problem:
    """The flat (plane or disc) problem whose modes, counts and fluxes stand
    for those of (domain, fld): a sphere's projected disc, or the problem itself.

    Raises ValueError when the field does not carry one flux per hole; a
    sphere must also pass :func:`sphere_to_disc`.
    """
    if len(fld.hole_fluxes) != domain.n_holes:
        raise ValueError(
            f"field carries {len(fld.hole_fluxes)} hole fluxes for {domain.n_holes} holes"
        )
    if domain.kind is not DomainKind.SPHERE:
        return Problem(domain, fld)
    return Problem(*sphere_to_disc(domain, fld), omitted_hole=domain.omitted_hole)
