"""Zero-mode counting, explicit bases, and independent numerical verification.

Counting (floor_strict(y) = biggest integer strictly below y, Phi = total or
semi-total flux, x = Phi/2pi):

    plane:            floor_strict(|x|) modes, spin up iff Phi > 0
    disc, shift q:    |floor_strict(x + q + 1/2)|, spin up iff that floor is > 0
    disc, alternate:  |floor_strict(-x + 1/2)|, spin up iff that floor is < 0
    sphere:           |floor_strict(x_hat + 1/2)| with the semi-total flux

Thresholds follow the one policy of :mod:`numutil`.

Every mode is a definite-chirality spinor u+ = e^{h} p(z) or
u- = e^{-h} p(conj z) with p a polynomial; sphere modes carry an extra
W^{-1/2} conformal dressing.  The admissible monomial degrees are

    plane:  up 0 <= n < x - 1,            down 0 <= n < -x - 1
    disc:   up 0 <= n < x + q - 1/2,      down 0 <= n <= -x - q - 1/2
    (alternate kernel swaps the strictness of the two end conditions).

Verification is independent of the construction: the Dirac equation is
checked by fourth-order central differencing on polar annulus grids plus a
Cartesian bulk grid, the boundary condition by Fourier-projecting the trace
onto the forbidden index sets, and square integrability at infinity by the
degree-exponent inequality plus a far-field decay sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import conformal
from .aps_boundary import BoundarySpectrum, leakage, trace_from_samples
from .errors import EmptyBasis, GridTooCoarse
from .field import (
    FieldSpec,
    KernelChoice,
    Profile,
    flux_over_2pi,
    normalize_flux,
    support_extents_from,
    support_radii_from,
    total_flux,
)
from .geometry import OUTER, Annulus, DomainKind, DomainSpec, annulus_probe
from .numutil import HALF, floor_strict, threshold_sum
from .potential import PotentialField


class Chirality(Enum):
    UP = "up"
    DOWN = "down"
    NONE = "none"


@dataclass(frozen=True)
class ZeroModeCount:
    count: int
    chirality: Chirality


def _require_sphere_canonical(fld: FieldSpec) -> None:
    if fld.q_shift != 0 or fld.kernel_choice is not KernelChoice.DEFAULT:
        raise ValueError("sphere results are stated for q = 0 with the default kernel")


def count_zero_modes(domain: DomainSpec, fld: FieldSpec) -> ZeroModeCount:
    """Number of zero modes and their common chirality."""
    if domain.kind is DomainKind.SPHERE:
        _require_sphere_canonical(fld)
    x = flux_over_2pi(total_flux(fld, domain))
    if domain.kind is DomainKind.PLANE:
        n = max(0, floor_strict(abs(x)))
        signed = n if x > 0 else -n
    elif fld.kernel_choice is KernelChoice.ALTERNATE:
        signed = -floor_strict(threshold_sum(-x, HALF))
    else:
        # disc with shift q, and the sphere via its semi-total flux (q = 0 there)
        signed = floor_strict(threshold_sum(x, fld.q_shift, HALF))
    if signed == 0:
        return ZeroModeCount(0, Chirality.NONE)
    return ZeroModeCount(abs(signed), Chirality.UP if signed > 0 else Chirality.DOWN)


def basis_degrees(domain: DomainSpec, fld: FieldSpec) -> Tuple[Chirality, List[int]]:
    """Admissible monomial degrees matching the counting formulas."""
    counted = count_zero_modes(domain, fld)
    if counted.count == 0:
        return counted.chirality, []
    return counted.chirality, list(range(counted.count))


@dataclass(frozen=True)
class ZeroMode:
    """One definite-chirality solution e^{+-h} * polynomial (W-dressed on spheres)."""

    chirality: Chirality
    coefficients: Dict[int, complex]
    potential: PotentialField
    domain: DomainSpec
    w_dressed: bool = False

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    def eval(self, z) -> np.ndarray:
        """Value of the nonzero spinor component at z."""
        return _eval_component(
            self.chirality, self.coefficients, self.w_dressed, self.potential, z
        )

    def eval_g(self, z) -> np.ndarray:
        """The analytic (or anti-analytic) factor g = e^{-+h} u, undressed."""
        z = np.asarray(z, dtype=complex)
        var = z if self.chirality is Chirality.UP else np.conj(z)
        return _polyval(self.coefficients, var)


@dataclass(frozen=True)
class ZeroModeBasis:
    chirality: Chirality
    degrees: List[int]
    potential: PotentialField
    domain: DomainSpec
    w_dressed: bool = False

    def modes(self) -> List[ZeroMode]:
        return [
            ZeroMode(self.chirality, {n: 1.0 + 0.0j}, self.potential,
                     self.domain, self.w_dressed)
            for n in self.degrees
        ]


def build_basis(
    domain: DomainSpec, fld: FieldSpec, potential: PotentialField
) -> ZeroModeBasis:
    """Monomial basis of the zero-mode space; raises EmptyBasis when count is 0."""
    chirality, degrees = basis_degrees(domain, fld)
    if not degrees:
        raise EmptyBasis("the configuration has no zero modes")
    return ZeroModeBasis(
        chirality=chirality,
        degrees=degrees,
        potential=potential,
        domain=domain,
        w_dressed=domain.kind is DomainKind.SPHERE,
    )


def _polyval(coefficients: Dict[int, complex], var: np.ndarray) -> np.ndarray:
    out = np.zeros(var.shape, dtype=complex)
    for n, c in coefficients.items():
        out = out + c * var ** n
    return out


def _eval_component(chirality, coefficients, dressed, potential, z) -> np.ndarray:
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    h = potential.eval_h(z)
    if chirality is Chirality.UP:
        out = np.exp(h) * _polyval(coefficients, z)
    else:
        out = np.exp(-h) * _polyval(coefficients, np.conj(z))
    if dressed:
        out = out / np.sqrt(conformal.conformal_factor(z))
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Grid and stencil parameters for the verification oracles."""

    radial: int = 64
    angular: int = 256
    bulk_divisor: int = 32
    fd_step_factor: float = 3e-3
    fd_step: Optional[float] = None  # explicit step overrides the factor rule
    n_boundary_samples: int = 2048
    decay_radius: float = 1e3
    max_bulk_points: int = 2_000_000


@dataclass(frozen=True)
class VerificationReport:
    pde_residual: float
    trace_leakage: Dict[str, float]
    integrability_exponent_ok: Optional[bool]
    richardson_factor: float
    passed: bool
    tolerances: Dict[str, float]


def _reduced_problem(domain: DomainSpec, fld: FieldSpec):
    """Sphere problems verify on their projected disc; others pass through."""
    if domain.kind is not DomainKind.SPHERE:
        return domain, fld
    red = conformal.sphere_to_disc(domain, fld)
    return red.disc_domain, red.disc_field


def _fd_scale(domain: DomainSpec, fld: FieldSpec) -> float:
    lengths = [h.radius for h in domain.holes]
    lengths += [b.support_radius for b in fld.bumps]
    if domain.kind is DomainKind.DISC:
        lengths.append(domain.radius_out / 4.0)
    return min(lengths) if lengths else 1.0


def _grid_reference(domain: DomainSpec, fld: FieldSpec) -> float:
    if domain.holes:
        return min(h.radius for h in domain.holes)
    if fld.bumps:
        return min(b.support_radius for b in fld.bumps)
    return domain.radius_out / 8.0 if domain.kind is DomainKind.DISC else 1.0


def _polar_points(center: complex, annulus: Annulus, radial: int, angular: int):
    radii = annulus.inner + (annulus.outer - annulus.inner) * \
        (np.arange(radial) + 0.5) / radial
    angles = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    return (center + radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def _bulk_points(domain: DomainSpec, fld: FieldSpec, grid: GridSpec,
                 fd_step: float) -> np.ndarray:
    spacing = _grid_reference(domain, fld) / grid.bulk_divisor
    if domain.kind is DomainKind.DISC:
        lo, hi = -domain.radius_out, domain.radius_out
    else:
        xs = [h.center.real for h in domain.holes] + [b.center.real for b in fld.bumps]
        ys = [h.center.imag for h in domain.holes] + [b.center.imag for b in fld.bumps]
        ext = [h.radius for h in domain.holes] + [b.support_radius for b in fld.bumps]
        if not xs:
            xs, ys, ext = [0.0], [0.0], [1.0]
        m = max(ext) + 1.0
        lo, hi = min(min(xs), min(ys)) - m, max(max(xs), max(ys)) + m
    n = int((hi - lo) / spacing) + 1
    while n * n > grid.max_bulk_points:
        spacing *= 2.0
        n = int((hi - lo) / spacing) + 1
    ax = lo + spacing * np.arange(n)
    zz = (ax[None, :] + 1j * ax[:, None]).ravel()
    keep = np.ones(zz.shape, dtype=bool)
    if domain.kind is DomainKind.DISC:
        keep &= np.abs(zz) < domain.radius_out - 2 * fd_step
    for h in domain.holes:
        keep &= np.abs(zz - h.center) > h.radius
    for b in fld.bumps:
        if b.profile is Profile.UNIFORM_DISC:
            # the density jumps at the support edge; skip the stencil-wide ring
            keep &= np.abs(np.abs(zz - b.center) - b.support_radius) > 3 * fd_step
    return zz[keep]


def d4(fn, zs: np.ndarray, shift: complex) -> np.ndarray:
    """Fourth-order central difference of fn along the complex step ``shift``."""
    return (
        -fn(zs + 2 * shift) + 8 * fn(zs + shift)
        - 8 * fn(zs - shift) + fn(zs - 2 * shift)
    ) / (12 * abs(shift))


def step_halving_ratio(residual: float, residual_half: float, tol_residual: float) -> float:
    """Richardson ratio of a residual to its value at half the step.

    Raises GridTooCoarse when the two differ by more than ten tolerances,
    i.e. when the finite-difference residual has not converged.
    """
    if abs(residual - residual_half) > 10.0 * tol_residual:
        raise GridTooCoarse(
            f"residual {residual:.3e} vs {residual_half:.3e} under step halving"
        )
    return residual / residual_half if residual_half > 0 else math.inf


def _pde_residual_at(mode_eval, potential: PotentialField, chirality: Chirality,
                     zs: np.ndarray, step: float) -> np.ndarray:
    """|D_a u| at each point via fourth-order central differences."""
    ux = d4(mode_eval, zs, step)
    uy = d4(mode_eval, zs, 1j * step)
    u0 = mode_eval(zs)
    a = potential.eval_a(zs)
    if chirality is Chirality.UP:
        dbar = 0.5 * (ux + 1j * uy)
        return np.abs(-2j * dbar - a * u0)
    dz = 0.5 * (ux - 1j * uy)
    return np.abs(-2j * dz - np.conj(a) * u0)


def boundary_spectra(domain: DomainSpec, fld: FieldSpec) -> Dict[str, BoundarySpectrum]:
    """Boundary spectra keyed by 'hole<j>' and (bounded domains) 'outer'."""
    dom, f = _reduced_problem(domain, fld)
    out: Dict[str, BoundarySpectrum] = {}
    for j, hole in enumerate(dom.holes):
        nf = normalize_flux(f.hole_fluxes[j], f.q_shift, f.kernel_choice)
        out[f"hole{j}"] = BoundarySpectrum(
            boundary=j, radius=hole.radius, flux_through=nf.value,
            q=f.q_shift, kernel_choice=f.kernel_choice,
        )
    if dom.kind is DomainKind.DISC:
        out["outer"] = BoundarySpectrum(
            boundary=OUTER, radius=dom.radius_out,
            flux_through=total_flux(f, dom),
            q=f.q_shift, kernel_choice=f.kernel_choice,
        )
    return out


def verify_mode(
    mode: ZeroMode,
    domain: DomainSpec,
    fld: FieldSpec,
    potential: PotentialField,
    grid: GridSpec = GridSpec(),
    tol_residual: float = 1e-6,
    tol_leakage: float = 1e-6,
) -> VerificationReport:
    """Independent check of one candidate mode against (domain, field).

    The mode's chirality/coefficients are evaluated with the *passed*
    potential, so a candidate can be re-verified against a perturbed field.
    Boundary samples are normalized to unit root-mean-square on each circle
    before the Fourier projection, so the reported leakage is the weighted
    fraction of the trace sitting on forbidden indices and the absolute
    tolerance is scale-free.
    """
    dom, f = _reduced_problem(domain, fld)
    dressed = mode.w_dressed

    def u_flat(z):
        # undressed flat-metric component; the conformal factor enters only
        # through the W^{-3/2} weight on the residual below
        return _eval_component(mode.chirality, mode.coefficients, False, potential, z)

    fd = grid.fd_step if grid.fd_step is not None \
        else _fd_scale(dom, f) * grid.fd_step_factor

    # --- PDE residual over polar annuli plus the bulk grid
    point_sets: List[np.ndarray] = []
    for j, hole in enumerate(dom.holes):
        probe = annulus_probe(dom, j, support_radii_from(f, hole.center))
        point_sets.append(_polar_points(hole.center, probe, grid.radial, grid.angular))
    if dom.kind is DomainKind.DISC:
        probe = annulus_probe(dom, OUTER, support_extents_from(f, 0.0))
        inset = Annulus(probe.inner, probe.outer - 2 * fd)
        if inset.outer > inset.inner:
            point_sets.append(_polar_points(0.0, inset, grid.radial, grid.angular))
    point_sets.append(_bulk_points(dom, f, grid, fd))
    zs = np.concatenate(point_sets)

    res = _pde_residual_at(u_flat, potential, mode.chirality, zs, fd)
    u_abs = np.abs(u_flat(zs))
    if dressed:
        w = conformal.conformal_factor(zs)
        res = res * w ** (-1.5)
        u_abs = u_abs * w ** (-0.5)
    u_max = float(np.max(u_abs))
    res_rel = res / u_max
    idx = int(np.argmax(res_rel))
    pde_residual = float(res_rel[idx])

    z_worst = zs[idx: idx + 1]
    res_half = _pde_residual_at(u_flat, potential, mode.chirality, z_worst, fd / 2)
    if dressed:
        res_half = res_half * conformal.conformal_factor(z_worst) ** (-1.5)
    richardson_factor = step_halving_ratio(
        pde_residual, float(res_half[0]) / u_max, tol_residual)

    # --- boundary trace leakage
    spectra = boundary_spectra(dom, f)
    phis = np.linspace(0.0, 2.0 * math.pi, grid.n_boundary_samples, endpoint=False)
    leakages: Dict[str, float] = {}
    for label, spec in spectra.items():
        center = 0.0 if spec.is_outer else dom.holes[spec.boundary].center
        pts = center + spec.radius * np.exp(1j * phis)
        samples = u_flat(pts)
        samples = samples / math.sqrt(float(np.mean(np.abs(samples) ** 2)))
        zero = np.zeros_like(samples)
        up = samples if mode.chirality is Chirality.UP else zero
        down = samples if mode.chirality is Chirality.DOWN else zero
        exponent = potential.boundary_phase_exponent(center, spec.radius, phis)
        tf = trace_from_samples(spec, phis, up, down, exponent)
        leakages[label] = leakage(tf, spec)

    # --- square integrability at infinity (plane only)
    exponent_ok: Optional[bool] = None
    if dom.kind is DomainKind.PLANE:
        x = flux_over_2pi(total_flux(f, dom))
        n_max = mode.degree
        if mode.chirality is Chirality.UP:
            exact_ok = n_max - x < -1
        else:
            exact_ok = n_max + x < -1
        radius = grid.decay_radius
        angles = np.exp(1j * (np.linspace(0, 2 * math.pi, 8, endpoint=False) + 0.1))
        ratio = np.max(np.abs(u_flat(2 * radius * angles))
                       / np.abs(u_flat(radius * angles)))
        exponent_ok = bool(exact_ok and ratio < 0.55)

    passed = (
        pde_residual < tol_residual
        and all(v < tol_leakage for v in leakages.values())
        and (exponent_ok is None or exponent_ok)
    )
    return VerificationReport(
        pde_residual=pde_residual,
        trace_leakage=leakages,
        integrability_exponent_ok=exponent_ok,
        richardson_factor=richardson_factor,
        passed=passed,
        tolerances={"pde_residual": tol_residual, "leakage": tol_leakage},
    )


def laurent_coefficients(
    fn, center: complex, radii: Sequence[float], n_max: int = 64, samples: int = 512
) -> Dict[int, complex]:
    """Laurent coefficients of fn around center from several probe radii.

    The per-radius estimate DFT_n(r) * r^{-n} amplifies rounding noise where
    the true coefficient vanishes (large |n| with unfavourable r), so for
    each n the radius giving the smallest magnitude is kept: genuine
    coefficients agree across radii, spurious ones collapse.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    per_radius = []
    for r in radii:
        vals = fn(center + r * np.exp(1j * phis))
        coeff = np.fft.fft(np.asarray(vals, dtype=complex)) / samples
        per_radius.append({
            n: complex(coeff[n % samples]) * r ** (-n)
            for n in range(-n_max, n_max + 1)
        })
    out: Dict[int, complex] = {}
    for n in range(-n_max, n_max + 1):
        out[n] = min((table[n] for table in per_radius), key=abs)
    return out


def analytic_extension_check(
    mode: ZeroMode, hole_index: int, rel_tol: float = 1e-6
) -> bool:
    """Whether g = e^{-+h} u continues analytically into the given hole.

    Checks that every negative-index Laurent coefficient on the probe annulus
    is below rel_tol times the largest coefficient.  Anti-analytic spin-down
    factors are handled by conjugating the angular variable.
    """
    dom, f = _reduced_problem(mode.domain, mode.potential.field)
    hole = dom.holes[hole_index]
    probe = annulus_probe(dom, hole_index, support_radii_from(f, hole.center))
    radii = [probe.inner + (probe.outer - probe.inner) * t for t in (0.3, 0.55, 0.8)]

    def g(z):
        vals = mode.eval_g(z)
        if mode.chirality is Chirality.DOWN:
            return np.conj(vals)  # expand conj(g) in z; its coefficients mirror g
        return vals

    coeffs = laurent_coefficients(g, hole.center, radii)
    top = max(abs(v) for v in coeffs.values())
    worst_negative = max(
        (abs(v) for n, v in coeffs.items() if n < 0), default=0.0
    )
    return worst_negative < rel_tol * top
