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
a_y = -dh/dx; for radial pieces it is purely tangential,
a = i F(s) d / (2pi s^2) with d = z - center, which is exact on supports as
well, so no numerical differentiation is needed anywhere.

Every source is evaluated in float arithmetic on the squared distance
s^2 = dx^2 + dy^2, built from the real and imaginary parts of d.  Outside a
support h is -(flux/4pi) log max(s^2, rho^2), and a is accumulated as
a_x -= k dy, a_y += k dx with k = F(s)/(2pi s^2).  Only the points inside a
support are gathered for its profile.  If some s^2 of a call underflows to 0
or overflows to inf, the call's h is evaluated again with the logs taken of
``np.hypot(dx, dy)``: h stays finite wherever |z - center| is positive and
finite, and a delta's h raises SingularPoint only at its centre.  A delta's
a raises wherever s^2 is 0.

Inside its support every bump is two Chebyshev series in x = 2 s^2/rho^2 - 1,
each built once: k with the bump, h at its first use.  Both profiles are
even in s, so they are smooth in s^2 and need no square root, and
k = F/(2pi s^2) is read directly, never divided by a vanishing s^2; at a
bump's centre a is 0.  On a uniform disc k is the one term
flux/(2pi rho^2).  Every smooth-compact bump is the unit bump scaled by
its amplitude C: its flux within s is (pi C rho^2/2) G(x), with G the one
series of :func:`field.smooth_flux_series`, so its k is C times one cached
unit series, G(x)/(2 (1 + x)).  For either profile h is the indefinite
integral of k, since dh/d(s^2) = -k/2, with its constant fixed so that h
meets the outside law at s = rho (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 3 and 19); on a uniform disc that is
the closed form -(flux/2pi) [log(rho) - (rho^2 - s^2)/(2 rho^2)].  Both
series are smooth on [-1, 1], so the interpolation error sits far below the
1e-8 quadrature budget; ``chebtrim`` keeps only their coefficients down to
1e-14 of their largest.

The series are summed by ``numpy.polynomial.chebyshev.chebval``, and h's
is integrated from k's by its ``chebint`` with ``lbnd=1``.

:meth:`PotentialField.interior_plan` is the one code that finds which
points fall inside a bump and sums h's series there, and ``add_h`` takes
those indices and values from it.  The finite-difference oracle builds one
plan per chunk of points for its nine stencil images z + offset, with one
series call per bump; ``eval_h`` reads an image's part of it, and given no
plan builds the plan of its own points alone.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Sequence, Tuple

from ._numpy import np
from .conformal import flat_problem
from .errors import SingularPoint
from .field import (
    FieldSpec,
    Profile,
    RadialBump,
    TWO_PI,
    smooth_flux_series,
    smooth_profile_amplitude,
)
from .geometry import DomainSpec


# trailing Chebyshev coefficients of a bump profile below this fraction of
# the largest are fitting noise and are dropped
_CHEB_CHOP = 1e-14


@functools.cache
def _unit_k() -> np.ndarray:
    """k in x of the smooth bump of amplitude 1, whatever its radius: G(x)/(2 (1 + x))
    (:func:`field.smooth_flux_series`), exact since G(-1) = 0.  Read only."""
    cheb = np.polynomial.chebyshev
    coef = 0.5 * cheb.chebdiv(smooth_flux_series(), (1.0, 1.0))[0]
    coef = cheb.chebtrim(coef, _CHEB_CHOP * np.max(np.abs(coef)))
    # cached and shared by every smooth bump: an in-place write would corrupt them all
    coef.setflags(write=False)
    return coef


def _flat_parts(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of z, flattened, as contiguous arrays."""
    flat = z.ravel()
    return np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)


class _RadialSource:
    """Radial profiles k(s) = F(s)/(2pi s^2), F the cumulative flux, and h(s)
    of one source of flux.

    A source has a centre, a flux and a support radius.  A bump's profile and
    radius are its own; a hole's delta is the source of radius 0, so every
    s > 0 lies outside its support.
    """

    def __init__(self, center: complex, flux: float, bump: Optional[RadialBump] = None):
        self.center = center
        self.flux = flux
        self.rho = rho = 0.0 if bump is None else bump.support_radius
        if bump is None:
            return
        if bump.profile is Profile.UNIFORM_DISC:
            # a float, not an array: building a uniform bump loads no numpy
            self._cheb_k = (flux / (TWO_PI * rho ** 2),)
        else:
            self._cheb_k = smooth_profile_amplitude(bump) * _unit_k()

    @functools.cached_property
    def _cheb_h(self) -> np.ndarray:
        """h from dh/d(s^2) = -k/2 with d(s^2) = rho^2/2 dx on [-1, 1], meeting
        the outside law at s = rho; built at its first use, so building a
        uniform bump makes no numpy call."""
        rho, cheb = self.rho, np.polynomial.chebyshev
        coef = cheb.chebint(self._cheb_k, lbnd=1.0, k=-self.flux / TWO_PI * math.log(rho),
                            scl=-rho ** 2 / 4.0)
        return cheb.chebtrim(coef, _CHEB_CHOP * np.max(np.abs(coef)))

    def _squared_distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """s^2 = dx^2 + dy^2 of the flat points x + i y from the centre (a new array)."""
        s2 = x - self.center.real
        s2 *= s2
        dy2 = y - self.center.imag
        dy2 *= dy2
        s2 += dy2
        return s2

    def _series_at(self, s2_in: np.ndarray, coef) -> np.ndarray:
        """The series ``coef`` at x = 2 s^2/rho^2 - 1 for squared distances
        inside the support, overwriting ``s2_in``."""
        s2_in *= 2.0
        s2_in /= self.rho ** 2
        s2_in -= 1.0
        return np.polynomial.chebyshev.chebval(s2_in, coef)

    def add_h(self, x: np.ndarray, y: np.ndarray, out: np.ndarray,
              interior: Tuple[np.ndarray, np.ndarray], hypot: bool = False) -> None:
        """out += this source's h at the flat points x + i y, given
        ``interior``: the indices of the points inside its support and its h
        there (:meth:`PotentialField.interior_plan`), ``((), None)`` for none.

        Its log is taken of s^2, or with ``hypot`` of |z - center| from
        ``np.hypot``, which stays in the float range where s^2 leaves it.
        """
        inside, h_in = interior
        rho, coef = self.rho, -self.flux / TWO_PI
        if hypot:
            h = np.hypot(x - self.center.real, y - self.center.imag)
            if not rho and np.any(h == 0.0):
                raise SingularPoint(f"h evaluated at delta centre {self.center}")
            np.log(np.maximum(h, rho, out=h), out=h)
            h *= coef
        else:
            s2 = self._squared_distance(x, y)
            # with no point inside, every s^2 is at least rho^2 or NaN: no clip
            h = np.maximum(s2, rho ** 2, out=s2) if len(inside) else s2
            np.log(h, out=h)
            h *= 0.5 * coef
        if len(inside):
            h[inside] = h_in
        out += h

    def add_a(self, x: np.ndarray, y: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> None:
        """ax + i ay += this source's a = i F(s) d / (2 pi s^2) at the flat points
        x + i y, with d = dx + i dy their offset from the centre."""
        dx, dy = x - self.center.real, y - self.center.imag
        s2 = dx * dx
        s2 += dy * dy
        rho, rho2 = self.rho, self.rho ** 2
        if not rho:  # a delta: no point is inside, and every s^2 must be positive
            if np.any(s2 == 0.0):
                raise SingularPoint(f"a evaluated at delta centre {self.center}")
            inside = ()
        else:
            inside = np.flatnonzero(s2 < rho2)
            k_in = self._series_at(s2[inside], self._cheb_k) if inside.size else None
        k = np.maximum(s2, rho2, out=s2) if len(inside) else s2
        np.divide(self.flux / TWO_PI, k, out=k)
        if len(inside):
            k[inside] = k_in
        np.multiply(k, dy, out=dy)
        ax -= dy
        np.multiply(k, dx, out=dx)
        ay += dx


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

    def interior_plan(self, z: np.ndarray, offsets: Sequence[complex]) -> Dict:
        """Every bump's h at the images z + offset inside its support, for all
        the offsets at once.

        By offset, one entry per source, the ``plan`` of ``eval_h(z + offset,
        plan)``: the flat indices of the images inside the source's support
        and its h there, ``((), None)`` for none and for every delta.  Each
        image's s^2 is formed as ``add_h`` forms it, and each bump's series is
        evaluated once, for all its images.  Only these inside-sized arrays
        outlive the call.
        """
        x, y = _flat_parts(z)
        reach = max(abs(offset) for offset in offsets)
        # a delta reads no plan; so does a bump with no image inside
        plan = {offset: [((), None)] * len(self._sources) for offset in offsets}
        for i, src in enumerate(self._sources):
            if not src.rho:
                continue
            # an image inside lies within rho of the centre, so its point
            # lies within rho + reach; twice the reach, and a term at the
            # scale of the coordinates, cover the rounding of image and s^2
            margin = 2 * reach + 1e-12 * (abs(src.center) + src.rho)
            near = np.flatnonzero(src._squared_distance(x, y) < (src.rho + margin) ** 2)
            if not near.size:
                continue
            xn, yn = x[near], y[near]
            found, s2_in = [], []
            for offset in offsets:
                s2 = src._squared_distance(xn + offset.real, yn + offset.imag)
                keep = np.flatnonzero(s2 < src.rho ** 2)
                if keep.size:
                    found.append((offset, near[keep]))
                    s2_in.append(s2[keep])
            if not found:
                continue
            s2_all = np.concatenate(s2_in)
            s2_in.clear()  # the series runs on the joined copy alone
            h_in = src._series_at(s2_all, src._cheb_h)
            ends = np.cumsum([inside.size for _, inside in found])[:-1]
            for (offset, inside), part in zip(found, np.split(h_in, ends)):
                plan[offset][i] = inside, part
        return plan

    def eval_h(self, z, plan: Optional[list] = None) -> np.ndarray:
        """h at z; ``plan`` is ``interior_plan(w, offsets)[offset]`` for
        z = w + offset, and gives each bump's h inside its support.  Without
        one, h reads the plan of z alone."""
        scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.shape == ())
        z = np.asarray(z, dtype=complex)
        x, y = _flat_parts(z)
        out = np.zeros(x.shape)
        with np.errstate(divide="ignore", over="ignore"):
            if plan is None:
                plan = self.interior_plan(z, (0,))[0]
            for src, interior in zip(self._sources, plan):
                src.add_h(x, y, out, interior)
            if not np.isfinite(out).all():  # some s^2 under- or overflowed
                out = np.zeros(x.shape)
                for src, interior in zip(self._sources, plan):
                    src.add_h(x, y, out, interior, hypot=True)
        return float(out[0]) if scalar else out.reshape(z.shape)

    def eval_a(self, z) -> np.ndarray:
        """a = a_x + i a_y; tangential around each radial source."""
        scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.shape == ())
        z = np.asarray(z, dtype=complex)
        x, y = _flat_parts(z)
        ax, ay = np.zeros(x.shape), np.zeros(x.shape)
        for src in self._sources:
            src.add_a(x, y, ax, ay)
        out = np.empty(x.shape, dtype=complex)
        out.real, out.imag = ax, ay
        return complex(out[0]) if scalar else out.reshape(z.shape)

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
