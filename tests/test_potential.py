"""Scalar/vector potential against quadrature and finite-difference oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

from zeromodes import (
    FieldSpec,
    Hole,
    PotentialField,
    Profile,
    RadialBump,
    SingularPoint,
    disc_with_holes,
    eval_B,
    pi_flux,
    plane_with_holes,
)
from zeromodes import zero_modes

TWO_PI = 2 * math.pi


def h_quadrature_oracle(fld, z_star, radius):
    """-(1/2pi) integral log|z*-z'| B(z') dA' in polar form around z_star.

    The polar form keeps the log singularity integrable (r log r -> 0), so
    the adaptive rule converges; independent of the library's radial
    reduction.
    """
    val, _ = dblquad(
        lambda r, t: math.log(r) * eval_B(fld, z_star + r * np.exp(1j * t)) * r,
        0.0, TWO_PI, 0.0, radius, epsabs=1e-11, epsrel=1e-11,
    )
    return -val / TWO_PI


def test_h_zero_field():
    pot = PotentialField(FieldSpec(), plane_with_holes([]))
    for z in (0.3, -2.0 + 1.0j, 5.0j):
        assert pot.eval_h(z) == 0.0
        assert pot.eval_a(z) == 0.0


def test_h_newton_form_outside_support():
    fld = FieldSpec(bumps=[RadialBump(0.0, 0.9, 3.7)])
    pot = PotentialField(fld, plane_with_holes([]))
    for z in (1.5, 2.0 - 1.0j, -4.0j):
        assert pot.eval_h(z) == pytest.approx(-3.7 / TWO_PI * math.log(abs(z)), rel=1e-12)


def test_h_uniform_disc_centre():
    # h(0) = flux/(4 pi): the analytic value of -(flux/pi) int_0^1 r log r dr
    flux = 2.6
    fld = FieldSpec(bumps=[RadialBump(0.0, 1.0, flux, Profile.UNIFORM_DISC)])
    pot = PotentialField(fld, plane_with_holes([]))
    assert pot.eval_h(0.0) == pytest.approx(flux / (4 * math.pi), rel=1e-12)


def test_h_on_smooth_support_vs_2d_quadrature():
    fld = FieldSpec(bumps=[RadialBump(0.5 + 0.25j, 0.8, 1.7)])
    pot = PotentialField(fld, plane_with_holes([]))
    for z_star in (0.5 + 0.25j, 0.9 + 0.3j, 0.2 - 0.1j):
        oracle = h_quadrature_oracle(fld, z_star, 2.2)
        assert pot.eval_h(z_star) == pytest.approx(oracle, abs=1e-8)


def test_h_delta_contribution_and_singularity():
    dom = plane_with_holes([Hole(1.0, 0.5)])
    fld = FieldSpec(hole_fluxes=[pi_flux("1/2")])
    pot = PotentialField(fld, dom)
    z = 2.5 + 1.0j
    assert pot.eval_h(z) == pytest.approx(-0.25 * math.log(abs(z - 1.0)), rel=1e-12)
    with pytest.raises(SingularPoint):
        pot.eval_h(1.0)
    with pytest.raises(SingularPoint):
        pot.eval_a(1.0 + 0.0j)


def test_a_delta_is_singular_where_its_squared_distance_underflows():
    # |z - w| = 1e-200 gives h, but |z - w|^2 is 0, so a delta's a refuses
    # the point; a bump's a stays finite at its own centre
    pot = PotentialField(FieldSpec(bumps=[RadialBump(1.0, 0.5, 2.0)], hole_fluxes=[1.0]),
                         plane_with_holes([Hole(0.0, 0.3)]))
    assert math.isfinite(pot.eval_h(1e-200))
    with pytest.raises(SingularPoint, match="a evaluated at delta centre 0"):
        pot.eval_a(1e-200 + 0j)
    assert np.isfinite(pot.eval_a(1.0 + 0j))


@pytest.mark.parametrize("profile", list(Profile), ids=lambda p: p.value)
def test_a_vanishes_where_a_bumps_squared_distance_underflows(profile):
    # |z - c|^2 = 1e-340 is 0 in floats, where F/s^2 would be 0/0; inside a
    # support a takes the finite F/s^2 of its inside law, so a is d times it,
    # 0 to 1e-169, with no warning (the suite turns warnings into errors)
    pot = PotentialField(FieldSpec(bumps=[RadialBump(1.0, 0.5, 2.0, profile)]),
                         plane_with_holes([]))
    assert abs(pot.eval_a(1.0 + 1e-170j)) < 1e-169
    assert pot.eval_a(1.0 + 0j) == 0
    assert math.isfinite(pot.eval_h(1.0 + 1e-170j))


def test_h_past_the_squared_range_is_the_log_law():
    # |z - w|^2 overflows past 1e308 and underflows below 1e-308; h is then
    # taken from the hypot, so it keeps the exact log law, with no warning
    pot = PotentialField(FieldSpec(bumps=[RadialBump(1.0, 0.5, 2.0)], hole_fluxes=[1.0]),
                         plane_with_holes([Hole(0.0, 0.3)]))
    for z in (1e200 + 1e200j, -3e250j):
        log_r = math.log(abs(z / 1e200)) + 200 * math.log(10.0)
        assert pot.eval_h(z) == pytest.approx(-3.0 / TWO_PI * log_r, rel=1e-14)
    z = np.array([1e-200, 2.0])
    expected = -np.array([math.log(1e-200), math.log(2.0)]) / TWO_PI \
        - 2.0 / TWO_PI * np.log(np.abs(z - 1.0))
    np.testing.assert_allclose(pot.eval_h(z), expected, rtol=1e-14)


def _plain_h_and_a(pot, z):
    """h and a summed over ``pot``'s sources from |z - center| by np.abs, as
    the radial laws read: the closed forms of a delta and of a uniform disc,
    and the library's series in s^2 on a smooth support."""
    cheb = np.polynomial.chebyshev
    bumps = pot.problem.field.bumps
    profiles = [None] * (len(pot._sources) - len(bumps)) + [b.profile for b in bumps]
    h = np.zeros(z.shape)
    a = np.zeros(z.shape, dtype=complex)
    for src, profile in zip(pot._sources, profiles):
        d = z - src.center
        s, rho = np.abs(d), src.rho
        coef = -src.flux / TWO_PI
        h_s = coef * np.log(np.maximum(s, rho))
        # k = F/(2 pi s^2), F = flux min(1, s^2/rho^2) outside a smooth support
        k_s = src.flux / (TWO_PI * np.maximum(s, rho) ** 2)
        if profile is Profile.UNIFORM_DISC:
            h_s = np.where(s < rho, coef * (math.log(rho) - (rho ** 2 - s ** 2) / (2 * rho ** 2)),
                           h_s)
        elif profile is Profile.SMOOTH_COMPACT:
            x = 2.0 * (np.minimum(s, rho) / rho) ** 2 - 1.0
            h_s = np.where(s < rho, cheb.chebval(x, src._cheb_h), h_s)
            k_s = np.where(s < rho, cheb.chebval(x, src._cheb_k), k_s)
        h += h_s
        safe = s > 0
        a[safe] += 1j * k_s[safe] * d[safe]
    return h, a


def test_kernels_follow_the_plain_radial_laws():
    # eval_h and eval_a, built from squared distances, against the radial laws
    # from |z - center|: at random points, inside both profiles, on both
    # support circles and from 1e-12 to 1e-3 rho from both bump centres
    smooth, uniform = RadialBump(-1.0 + 0.5j, 0.7, 2.3), \
        RadialBump(1.2 - 0.4j, 0.5, -1.6, Profile.UNIFORM_DISC)
    pot = PotentialField(FieldSpec(bumps=[smooth, uniform], hole_fluxes=[pi_flux("1/3"), -0.9]),
                         plane_with_holes([Hole(2.5, 0.4), Hole(-2.0j, 0.3)]))
    rng = np.random.default_rng(5)
    angles = np.exp(2j * math.pi * rng.random(64))
    parts = [rng.uniform(-4, 4, 2000) + 1j * rng.uniform(-4, 4, 2000)]
    for bump in (smooth, uniform):
        c, rho = bump.center, bump.support_radius
        parts += [c + rho * np.sqrt(rng.random(500)) * angles[rng.integers(0, 64, 500)],
                  c + rho * angles,
                  c + rho * np.array([0.0, 1e-12, 1e-6, 5e-4, 9.9e-4])[:, None] * angles[:8],
                  np.array([c])]
    z = np.concatenate([np.ravel(p) for p in parts])
    h, a = _plain_h_and_a(pot, z)
    np.testing.assert_allclose(pot.eval_h(z), h, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(pot.eval_a(z), a, rtol=1e-13, atol=1e-13)


def test_smooth_profiles_against_mpmath_radial_integrals():
    # the series F and the chebint h of a smooth bump against 30-digit
    # quadrature of F(s) = 2 pi int_0^s b(r) r dr and
    # h(s) = -(1/2pi) [log(s) F(s) + 2 pi int_s^rho b(r) r log(r) dr],
    # with b normalised to the flux by quadrature as well; F is read off a
    # as 2 pi s |a|
    bump = RadialBump(0.3 - 0.2j, 0.6, pi_flux("25/4"))
    pot = PotentialField(FieldSpec(bumps=[bump]), disc_with_holes(3.0))
    rho, flux = bump.support_radius, float(bump.flux)
    with mpmath.workdps(30):
        shape = [lambda r: mpmath.exp(-1 / (1 - (r / rho) ** 2)) * r,
                 lambda r: mpmath.exp(-1 / (1 - (r / rho) ** 2)) * r * mpmath.log(r)]
        amp = flux / (2 * mpmath.pi * mpmath.quad(shape[0], [0, rho]))
        for frac in (1e-4, 0.01, 0.1, 0.37, 0.5, 0.8, 0.95, 0.999, 1.0):
            s = frac * rho
            f_ref = 2 * mpmath.pi * amp * mpmath.quad(shape[0], [0, s])
            h_ref = -(mpmath.log(s) * f_ref
                      + 2 * mpmath.pi * amp * mpmath.quad(shape[1], [s, rho])) / (2 * mpmath.pi)
            z = bump.center + s
            assert TWO_PI * s * abs(pot.eval_a(z)) == pytest.approx(float(f_ref), abs=1e-12)
            assert pot.eval_h(z) == pytest.approx(float(h_ref), abs=1e-12)


def test_a_near_a_smooth_centre_against_mpmath():
    # |a|/s = F/(2 pi s^2) near a smooth bump's centre against 30-digit
    # quadrature, to 1e-12 relative; the bump is centred at 0, so s is the
    # float z itself
    bump = RadialBump(0.0, 0.6, pi_flux("25/4"))
    pot = PotentialField(FieldSpec(bumps=[bump]), disc_with_holes(3.0))
    rho, flux = bump.support_radius, float(bump.flux)
    with mpmath.workdps(30):
        def weight(r):
            return mpmath.exp(-1 / (1 - (r / rho) ** 2)) * r

        amp = flux / (2 * mpmath.pi * mpmath.quad(weight, [0, rho]))
        for frac in (1e-4, 1.1e-3, 2e-3, 5e-3, 1e-2):
            s = frac * rho
            k_ref = amp * mpmath.quad(weight, [0, s]) / s ** 2
            assert abs(pot.eval_a(complex(s))) / s == pytest.approx(float(k_ref), rel=1e-12)


def test_a_tangential_outside_support():
    # a_phi = flux/(2 pi r), a_r = 0, checked against a 1000-point loop oracle
    flux = 3.1
    fld = FieldSpec(bumps=[RadialBump(0.0, 0.7, flux)])
    pot = PotentialField(fld, plane_with_holes([]))
    z = 2.0 * np.exp(0.7j)
    a = pot.eval_a(complex(z))
    tangent = 1j * np.exp(0.7j)
    assert abs(a - flux / (TWO_PI * 2.0) * tangent) < 1e-12

    phis = np.linspace(0, TWO_PI, 1000, endpoint=False)
    pts = 2.0 * np.exp(1j * phis)
    integrand = np.real(pot.eval_a(pts) * np.conj(1j * np.exp(1j * phis)))
    loop = float(np.sum(integrand)) * 2.0 * TWO_PI / len(phis)
    assert loop == pytest.approx(flux, abs=1e-6)


def test_loop_integral_counts_enclosed_flux_only():
    dom = plane_with_holes([Hole(3.0, 0.4)])
    fld = FieldSpec(
        bumps=[RadialBump(0.0, 0.6, 1.3), RadialBump(-2.5j, 0.5, -0.8)],
        hole_fluxes=[pi_flux("1/2")],
    )
    pot = PotentialField(fld, dom)
    phis = np.linspace(0, TWO_PI, 1000, endpoint=False)

    def loop(center, radius):
        pts = center + radius * np.exp(1j * phis)
        integrand = np.real(pot.eval_a(pts) * np.conj(1j * np.exp(1j * phis)))
        return float(np.sum(integrand)) * radius * TWO_PI / len(phis)

    assert loop(0.0, 1.2) == pytest.approx(1.3, abs=1e-6)
    assert loop(0.0, 10.0) == pytest.approx(1.3 - 0.8 + math.pi / 2, abs=1e-6)
    assert loop(3.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-6)


def test_a_bounded_at_infinity():
    fld = FieldSpec(bumps=[RadialBump(0.3, 0.6, 2.0), RadialBump(-0.5j, 0.4, 1.0)])
    pot = PotentialField(fld, plane_with_holes([]))
    for radius in (2.0, 10.0, 100.0):
        pts = radius * np.exp(1j * np.linspace(0, TWO_PI, 32))
        assert np.all(np.abs(pot.eval_a(pts)) <= 3.5 / radius)


def test_fd_gradient_matches_a_at_random_points():
    rng = np.random.default_rng(11)
    dom = plane_with_holes([Hole(2.5, 0.4)])
    fld = FieldSpec(bumps=[RadialBump(-1.0, 0.7, 1.9)], hole_fluxes=[pi_flux("1/3")])
    pot = PotentialField(fld, dom)
    step = 1e-6
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z - 2.5) < 0.5 or abs(z + 1.0) < 0.8:
            continue  # off supports and away from the hole
        hx = (pot.eval_h(z + step) - pot.eval_h(z - step)) / (2 * step)
        hy = (pot.eval_h(z + 1j * step) - pot.eval_h(z - 1j * step)) / (2 * step)
        # a_x = dh/dy, a_y = -dh/dx
        assert abs(complex(hy, -hx) - pot.eval_a(z)) < 1e-5
        checked += 1


def test_derivative_deficit_decays_like_inverse_square():
    # |2 dh/dz + Phi/(2 pi z)| <= const/|z|^2, via finite differences on rings
    fld = FieldSpec(bumps=[RadialBump(0.4 + 0.2j, 0.6, 2.3)])
    pot = PotentialField(fld, plane_with_holes([]))
    phi = 2.3

    def deficit(radius):
        worst = 0.0
        step = 1e-3 * radius
        for ang in np.linspace(0, TWO_PI, 8, endpoint=False):
            z = radius * np.exp(1j * ang)
            hx = (pot.eval_h(z + step) - pot.eval_h(z - step)) / (2 * step)
            hy = (pot.eval_h(z + 1j * step) - pot.eval_h(z - 1j * step)) / (2 * step)
            dz = 0.5 * complex(hx, -hy)
            worst = max(worst, abs(2 * dz + phi / (TWO_PI * z)))
        return worst

    d100, d1000 = deficit(100.0), deficit(1000.0)
    assert d100 * 100.0 ** 2 < 5.0
    assert d1000 < d100 / 50.0


def test_gauge_is_divergence_free():
    dom = plane_with_holes([Hole(2.5, 0.4)])
    fld = FieldSpec(bumps=[RadialBump(-0.6, 0.8, 2.1)], hole_fluxes=[pi_flux("1/2")])
    pot = PotentialField(fld, dom)
    step = 1e-5
    for z in (0.2 + 0.3j, -0.6 + 0.1j, 1.4 - 1.0j):  # includes on-support points
        ax = (pot.eval_a(z + step).real - pot.eval_a(z - step).real) / (2 * step)
        ay = (pot.eval_a(z + 1j * step).imag - pot.eval_a(z - 1j * step).imag) / (2 * step)
        assert abs(ax + ay) < 1e-6


def test_h_asymptotics():
    # outside every source h = -(Phi/2pi) log|z| + O(1/|z|): the log slope
    # between decades is -Phi/2pi and the remainder shrinks with the radius
    angles = np.exp(1j * (np.linspace(0.0, TWO_PI, 8, endpoint=False) + 0.37))
    radii = (1e2, 1e3, 1e4)
    cases = [
        (FieldSpec(bumps=[RadialBump(0.0, 1.0, TWO_PI)]), plane_with_holes([]), -1.0),
        (FieldSpec(), plane_with_holes([]), 0.0),
        (FieldSpec(bumps=[RadialBump(-1.0, 0.5, 2 * math.pi)], hole_fluxes=[pi_flux("1/2")]),
         plane_with_holes([Hole(2.0, 0.4)]), -1.25),
    ]
    for fld, dom, slope in cases:
        pot = PotentialField(fld, dom)
        h = [pot.eval_h(r * angles) for r in radii]
        for r0, h0, r1, h1 in zip(radii, h, radii[1:], h[1:]):
            assert np.mean(h1 - h0) / math.log(r1 / r0) == pytest.approx(slope, rel=1e-9)
        res = [float(np.max(np.abs(hr - slope * math.log(r)))) for r, hr in zip(radii, h)]
        if fld.hole_fluxes:  # off-centre sources leave an O(1/|z|) remainder
            assert res[0] > res[1] > res[2]
            assert res[2] < res[0] / 50.0
        else:  # one centred source: the log law is exact outside its support
            assert max(res) < 1e-12


def test_chopped_profiles_follow_the_full_fit():
    # the chopped k = F/(2 pi s^2) and h series of a smooth bump, in
    # x = 2 s^2/rho^2 - 1, stay within 1e-13 of the largest coefficient of
    # numpy's unchopped fit, and both are shorter than its 160 nodes: the
    # flux series G interpolated at the first-kind nodes and integrated,
    # k = C G/(2 (1 + x)), and h integrating k, dh/dx = -k rho^2/4
    from numpy.polynomial import chebyshev as cheb

    from zeromodes.field import smooth_profile_amplitude

    bump = RadialBump(0.3 - 0.2j, 0.6, pi_flux("25/4"))
    pot = PotentialField(FieldSpec(bumps=[bump]), disc_with_holes(3.0))
    radial = pot._sources[0]
    rho, n_nodes = bump.support_radius, 160
    g_full = cheb.chebint(cheb.chebinterpolate(lambda t: np.exp(-2.0 / (1.0 - t)), n_nodes - 1),
                          lbnd=-1.0)
    k_full = 0.5 * smooth_profile_amplitude(bump) * cheb.chebdiv(g_full, (1.0, 1.0))[0]
    h_full = cheb.chebint(k_full, lbnd=1.0, k=-radial.flux / TWO_PI * math.log(rho),
                          scl=-rho ** 2 / 4.0)

    assert len(radial._cheb_k) < n_nodes and len(radial._cheb_h) < n_nodes
    x_test = 2.0 * (np.linspace(0.0, rho, 10_000) / rho) ** 2 - 1.0
    for chopped, full in ((radial._cheb_k, k_full), (radial._cheb_h, h_full)):
        gap = np.max(np.abs(cheb.chebval(x_test, chopped) - cheb.chebval(x_test, full)))
        assert gap <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("rho", [0.13, 0.6, 2.5])
def test_smooth_k_and_h_against_mpmath_at_any_radius(rho):
    # one unit fit serves every radius and flux: k = F/(2 pi s^2), read as
    # a/(i s) at a centred bump, to 1e-12 relative and h to 1e-12 absolute
    # against 30-digit quadrature, which is linear in the flux
    fluxes = [pi_flux("25/4"), -2.9, pi_flux("1/3"), 40.0]
    pots = [PotentialField(FieldSpec(bumps=[RadialBump(0.0, rho, flux)]), disc_with_holes(8.0))
            for flux in fluxes]
    with mpmath.workdps(30):
        def weight(r):
            return mpmath.exp(-1 / (1 - (r / rho) ** 2)) * r

        amp = 1 / (2 * mpmath.pi * mpmath.quad(weight, [0, rho]))
        for frac in (1e-4, 0.01, 0.1, 0.37, 0.5, 0.8, 0.95, 0.999, 1.0):
            s = frac * rho
            f_unit = 2 * mpmath.pi * amp * mpmath.quad(weight, [0, s])
            k_unit = float(f_unit / (2 * mpmath.pi * s ** 2))
            h_unit = float(-(mpmath.log(s) * f_unit + 2 * mpmath.pi * amp * mpmath.quad(
                lambda r: weight(r) * mpmath.log(r), [s, rho])) / (2 * mpmath.pi))
            for flux, pot in zip(fluxes, pots):
                k = (pot.eval_a(complex(s)) / (1j * s)).real
                assert k == pytest.approx(float(flux) * k_unit, rel=1e-12)
                assert pot.eval_h(complex(s)) == pytest.approx(float(flux) * h_unit, abs=1e-12)


def test_quadrature_error_budget_on_support():
    # library h vs adaptive 2D oracle stays under the 1e-8 budget on supports
    fld = FieldSpec(bumps=[RadialBump(0.0, 1.2, -2.9)])
    pot = PotentialField(fld, disc_with_holes(4.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.uniform(0, 1.15)
        z = r * np.exp(1j * rng.uniform(0, TWO_PI))
        assert pot.eval_h(complex(z)) == pytest.approx(
            h_quadrature_oracle(fld, complex(z), 2.5), abs=1e-8
        )


def _bitwise_equal(got, want) -> bool:
    """np.array_equal, with the same sign on every zero."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _near_the_circles(pot, offsets, rng):
    """Points whose stencil images z + offset land on each bump's support
    circle and one ulp to either side of it (at its four axis points, where
    dyadic centres, radii and steps keep the arithmetic exact), random
    points in a band a stencil wide around each circle, and random points
    over all the supports."""
    parts = []
    for src in (src for src in pot._sources if src.rho):
        c, rho = src.center, src.rho
        for u in (1, -1, 1j, -1j):
            w = c + rho * u
            along = np.array([w.real, w.imag])
            axis = 0 if u.real else 1
            for toward in (-np.inf, None, np.inf):
                p = along.copy()
                if toward is not None:
                    p[axis] = np.nextafter(p[axis], toward)
                parts.append(complex(*p) - np.array(offsets))
        reach = 3 * max(abs(o) for o in offsets)
        band = rho + rng.uniform(-reach, reach, 400)
        parts.append(c + band * np.exp(2j * math.pi * rng.random(400)))
    parts.append(rng.uniform(-2, 2, 2000) + 1j * rng.uniform(-2, 2, 2000))
    return np.concatenate([np.ravel(p) for p in parts])


def _h_with_own_gathers(pot, z):
    """h at the points z, each bump's inside found by its own s^2 < rho^2
    gather and its h there by ``_series_at``, with no plan."""
    x, y = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    out = np.zeros(x.shape)
    for src in pot._sources:
        interior = ((), None)
        if src.rho:
            s2 = src._squared_distance(x, y)
            inside = np.flatnonzero(s2 < src.rho ** 2)
            if inside.size:
                interior = inside, src._series_at(s2[inside], src._cheb_h)
        src.add_h(x, y, out, interior)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_the_interior_plan_gives_eval_h_to_the_bit(seed):
    # random smooth and uniform bumps on dyadic centres and radii, some
    # supports overlapping, and two deltas: at every stencil image of points
    # on, next to and around the support circles, h from the chunk's plan,
    # and from the image's own one-image plan, is h from each bump's own
    # gather and series
    rng = np.random.default_rng(seed)
    bumps = [RadialBump(complex(*rng.integers(-12, 13, 2) / 16), rng.integers(4, 17) / 16,
                        rng.uniform(-3, 3), rng.choice(list(Profile))) for _ in range(3)]
    bumps.append(RadialBump(bumps[0].center + bumps[0].support_radius / 2, 0.5, 1.3,
                            Profile.UNIFORM_DISC))  # overlaps the first
    pot = PotentialField(FieldSpec(bumps=bumps, hole_fluxes=[0.4, -1.1]),
                         plane_with_holes([Hole(3.0 + 1.0j, 0.25), Hole(-3.0, 0.5)]))
    offsets = zero_modes._stencil(2.0 ** -int(rng.integers(4, 8)))
    z = _near_the_circles(pot, offsets, rng)
    plan = pot.interior_plan(z, offsets)
    on_circle = 0
    for offset in offsets:
        image = z + offset if offset else z
        want = _h_with_own_gathers(pot, image)
        assert _bitwise_equal(pot.eval_h(image, plan[offset]), want)
        assert _bitwise_equal(pot.eval_h(image), want)
        on_circle += sum(np.count_nonzero(src._squared_distance(image.real, image.imag)
                                          == src.rho ** 2) for src in pot._sources if src.rho)
    assert on_circle >= 4 * len(bumps) * len(offsets)  # the images the points aim at
    # a potential with no bump gets a plan with no inside point
    no_bump = PotentialField(FieldSpec(hole_fluxes=[0.4]), plane_with_holes(
        [Hole(3.0 + 1.0j, 0.25)])).interior_plan(z, offsets)
    assert no_bump == {offset: [((), None)] for offset in offsets}


def test_a_of_a_delta_raises_at_its_centre_and_keeps_a_nan():
    pot = PotentialField(FieldSpec(hole_fluxes=[0.7]), plane_with_holes([Hole(0.5 - 0.25j, 0.3)]))
    with pytest.raises(SingularPoint, match="a evaluated at delta centre"):
        pot.eval_a(np.array([1.0 + 0.0j, 0.5 - 0.25j]))
    a = pot.eval_a(np.array([complex(np.nan, 1.0), 2.0 + 0.0j]))
    assert np.isnan(a[0].real) and np.isnan(a[0].imag)
    assert a[1] == pytest.approx(1j * 0.7 / TWO_PI * (1.5 + 0.25j) / abs(1.5 + 0.25j) ** 2)
