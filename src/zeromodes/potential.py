"""Scalar potential h and vector potential a in the divergence-free gauge.

h solves -laplace(h) = B with the logarithmic Newtonian kernel,

    h(z) = -(1/2pi) * integral log|z - z'| B(z') dA',

so each hole delta, the radial source of radius 0, contributes
-(flux'/2pi) log|z - w|, and each radial bump reduces by the ring average of
the kernel (mean of log|s - r e^{i t}| over t is log max(s, r)) to
one-dimensional radial integrals:

    h(s) = -(1/2pi) [ log(s) F(s) + 2pi int_s^rho b(r) r log(r) dr ],
    F(s) = cumulative flux within radius s.

Outside every support this collapses to -(flux/2pi) log|z - center| exactly.
The vector potential a = a_x + i a_y follows from dh via a_x = dh/dy,
a_y = -dh/dx; for radial pieces it is purely tangential with magnitude
F(s)/(2pi s), which is exact on supports as well, so no numerical
differentiation is needed anywhere.

Smooth-compact bumps have no closed forms; their radial F and h profiles are
evaluated once per bump at Chebyshev nodes with fixed-order Gauss-Legendre
quadrature (:func:`field.gauss_nodes`) and then read back through the
interpolants.  Both profiles are smooth on [0, rho], so the interpolation
error sits far below the 1e-8 quadrature budget; the interpolants keep only
the coefficients down to 1e-14 of their largest (F is chopped before the h
quadrature reads it).
"""

from __future__ import annotations

import math
from typing import Optional

from ._numpy import np
from .conformal import flat_problem
from .errors import SingularPoint
from .field import (
    FieldSpec,
    Profile,
    RadialBump,
    TWO_PI,
    gauss_nodes,
    smooth_profile_amplitude,
    smooth_profile_shape,
)
from .geometry import DomainSpec


# trailing Chebyshev coefficients of a bump profile below this fraction of
# the largest are fitting noise and are dropped
_CHEB_CHOP = 1e-14


def _chopped(coef: np.ndarray) -> np.ndarray:
    """coef without its trailing entries below _CHEB_CHOP of the largest."""
    size = np.abs(coef)
    kept = np.nonzero(size >= _CHEB_CHOP * np.max(size))[0]
    return coef[: kept[-1] + 1]


def _gl_integrals_from(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vector of integrals of fn over [lo_i, hi_i], one fixed rule per row."""
    x, w = gauss_nodes()
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (half[:, 0]) * (fn(mid + half * x[None, :]) @ w)


class _RadialSource:
    """Radial profiles F(s) (cumulative flux) and h(s) of one source of flux.

    A source has a centre, a flux and a support radius.  A bump's profile and
    radius are its own; a hole's delta is the source of radius 0, so every
    s > 0 lies outside its support.
    """

    def __init__(self, center: complex, flux: float, bump: Optional[RadialBump] = None):
        self.center = center
        self.flux = flux
        self.rho = 0.0 if bump is None else bump.support_radius
        self.profile = None if bump is None else bump.profile
        if self.profile is Profile.SMOOTH_COMPACT:
            self._build_smooth(smooth_profile_amplitude(bump))

    def _build_smooth(self, amp: float) -> None:
        rho = self.rho
        self._density0 = amp * math.exp(-1.0)
        n_nodes = 160
        # interior Chebyshev points of the first kind on [0, rho]
        k = np.arange(n_nodes)
        t = 0.5 * rho * (1.0 + np.cos(math.pi * (2 * k + 1) / (2 * n_nodes)))

        def density(r):
            return amp * smooth_profile_shape(r, rho)

        f_vals = TWO_PI * _gl_integrals_from(lambda r: density(r) * r, np.zeros_like(t), t)
        self._cheb_f = _chopped(
            np.polynomial.chebyshev.chebfit(2.0 * t / rho - 1.0, f_vals, n_nodes - 1))

        # h from the smooth radial relation h'(s) = -F(s)/(2 pi s); the
        # integrand F(s)/s vanishes at 0, so no log singularity enters.
        def h_integrand(s):
            return np.polynomial.chebyshev.chebval(2.0 * s / rho - 1.0, self._cheb_f) / s

        h_edge = -self.flux / TWO_PI * math.log(rho)
        h_vals = h_edge + _gl_integrals_from(h_integrand, t, np.full_like(t, rho)) / TWO_PI
        self._cheb_h = _chopped(
            np.polynomial.chebyshev.chebfit(2.0 * t / rho - 1.0, h_vals, n_nodes - 1))

    def flux_within(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not self.rho:  # a delta's a = i F d / (2 pi s^2) is singular where s^2 is 0
            if np.any(s ** 2 == 0.0):
                raise SingularPoint(f"a evaluated at delta centre {self.center}")
            return np.full(s.shape, self.flux)
        if self.profile is Profile.UNIFORM_DISC:
            return self.flux * np.minimum(1.0, (s / self.rho) ** 2)
        out = np.full(s.shape, self.flux)
        # near the centre the interpolant's absolute error would be amplified
        # by 1/s^2 in the vector potential; switch to the exact s^2 leading law
        tiny = s < 1e-3 * self.rho
        mid = (s < self.rho) & ~tiny
        if np.any(mid):
            out[mid] = np.polynomial.chebyshev.chebval(
                2.0 * s[mid] / self.rho - 1.0, self._cheb_f)
        if np.any(tiny):
            st = s[tiny]
            out[tiny] = math.pi * self._density0 * st ** 2 * \
                (1.0 - st ** 2 / (2.0 * self.rho ** 2))
        return out

    def h_radial(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        coef = -self.flux / TWO_PI
        if not self.rho:
            if np.any(s == 0.0):
                raise SingularPoint(f"h evaluated at delta centre {self.center}")
            return coef * np.log(s)
        out = np.empty(s.shape)
        outside = s >= self.rho
        with np.errstate(divide="ignore"):
            out[outside] = coef * np.log(s[outside])
        inside = ~outside
        if np.any(inside):
            if self.profile is Profile.UNIFORM_DISC:
                si = s[inside]
                out[inside] = coef * (
                    math.log(self.rho) - (self.rho ** 2 - si ** 2) / (2.0 * self.rho ** 2)
                )
            else:
                out[inside] = np.polynomial.chebyshev.chebval(
                    2.0 * s[inside] / self.rho - 1.0, self._cheb_h)
        return out


class PotentialField:
    """Evaluator for h and a of a validated (field, domain) pair.

    h and a are sums over radial sources: first each hole's delta of its
    normalized flux at the hole centre (the gauge-reduced delta model), then
    each bump, of ``problem``, the flat problem of (domain, field)
    (``conformal.flat_problem``).  Immutable after construction.
    """

    def __init__(self, fld: FieldSpec, domain: DomainSpec):
        self.problem = problem = flat_problem(domain, fld)
        holes = zip(problem.domain.holes, problem.field.normalized_hole_fluxes)
        self._sources = [_RadialSource(h.center, float(nf.value)) for h, nf in holes]
        self._sources += [_RadialSource(b.center, float(b.flux), b) for b in problem.field.bumps]

    # -- scalar potential --------------------------------------------------

    def eval_h(self, z) -> np.ndarray:
        scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.shape == ())
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(z.shape)
        for src in self._sources:
            out += src.h_radial(np.abs(z - src.center))
        return float(out[0]) if scalar else out

    def eval_a(self, z) -> np.ndarray:
        """a = a_x + i a_y; tangential around each radial source."""
        scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.shape == ())
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.zeros(z.shape, dtype=complex)
        for src in self._sources:
            d = z - src.center
            r = np.abs(d)
            safe = r > 0  # a bump's a vanishes at its centre; a delta raises there
            f = src.flux_within(r)
            out[safe] += 1j * (f[safe] / TWO_PI) * d[safe] / (r[safe] ** 2)
        return complex(out[0]) if scalar else out

    # -- boundary line integrals -------------------------------------------

    def boundary_phase_exponent(
        self, center: complex, radius: float, phis: np.ndarray
    ) -> np.ndarray:
        """int_gamma a.ds from angle 0 to each phi along the circle.

        Exact winding form: each source of flux f contributes
        (f/2pi) * (continuous change of arg(z - source)).  Valid when the
        circle is clear of bump supports.  ``phis`` must be dense enough that
        consecutive argument steps stay below pi.
        """
        phis = np.asarray(phis, dtype=float)
        pts = center + radius * np.exp(1j * phis)
        out = np.zeros(phis.shape)
        for src in self._sources:
            ang = np.unwrap(np.angle(pts - src.center))
            out += (src.flux / TWO_PI) * (ang - ang[0])
        return out
