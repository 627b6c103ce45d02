"""Projection, Moebius transforms, spinor patching, and the sphere reduction."""

import math

import numpy as np
import pytest

from zeromodes import (
    Chirality,
    FieldSpec,
    Hole,
    NorthPole,
    PolePoint,
    RadialBump,
    PotentialField,
    SphereFluxMismatch,
    build_basis,
    conformal_factor,
    conformal_ratio,
    count_zero_modes,
    mobius_for_point,
    patch_spinor,
    pi_flux,
    sphere_to_disc,
    sphere_with_holes,
    stereo_project,
    verify_mode,
)


def test_stereo_projection_examples():
    assert stereo_project(math.pi, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert stereo_project(math.pi / 2, 0.0) == pytest.approx(2.0)
    assert stereo_project(math.pi / 2, math.pi / 2) == pytest.approx(-2.0j, abs=1e-12)
    with pytest.raises(NorthPole):
        stereo_project(0.0, 1.0)


def test_conformal_factor_bounds():
    zs = np.array([0.0, 1.0 + 1.0j, 10.0, -200.0j])
    w = conformal_factor(zs)
    assert w[0] == 1.0
    assert np.all((0 < w) & (w <= 1.0))


def test_mobius_for_point_determinant_and_relations():
    rng = np.random.default_rng(2)
    for _ in range(100):
        theta0 = rng.uniform(1e-3, math.pi)
        phi0 = rng.uniform(0, 2 * math.pi)
        m = mobius_for_point(theta0, phi0)
        assert abs(m.det - 1.0) < 1e-14
        assert m.rotation_relations_error() < 1e-14


def test_mobius_limit_is_identity():
    m = mobius_for_point(0.0, 0.7)
    assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, -0.0, 1.0)


def test_mobius_pole_and_fixed_points():
    m = mobius_for_point(math.pi / 2, 0.0)
    # P(omega) = 2 cot(pi/4) = 2 must map to infinity: c*2 + d = 0
    assert abs(m.c * 2.0 + m.d) < 1e-15
    for fixed in (2.0j, -2.0j):
        assert abs(m.apply(fixed) - fixed) < 1e-14


def test_exact_pole_raises():
    from zeromodes import MobiusCoeffs

    m = MobiusCoeffs(a=0.0, b=-1.0, c=1.0, d=-2.0)  # det 1, pole exactly at 2
    assert m.det == 1.0
    with pytest.raises(PolePoint):
        m.apply(2.0)
    with pytest.raises(PolePoint):
        patch_spinor(np.array([1.0, 0.0]), 2.0, m)
    with pytest.raises(PolePoint):
        conformal_ratio(2.0, m)


def test_composition_keeps_rotation_relations():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m1 = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        m2 = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        assert m1.compose(m2).rotation_relations_error() < 1e-12


def test_patch_spinor_identity_and_unitarity():
    ident = mobius_for_point(0.0, 0.0)
    u = np.array([1.0 + 2.0j, -0.5j])
    np.testing.assert_allclose(patch_spinor(u, 0.7 + 0.1j, ident), u)

    rng = np.random.default_rng(4)
    for _ in range(100):
        m = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        z = complex(rng.normal(), rng.normal())
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = patch_spinor(u, z, m)
        assert abs(np.linalg.norm(v) - np.linalg.norm(u)) < 1e-12


def test_patching_cocycle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m1 = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        m2 = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        z = complex(rng.normal(), rng.normal())
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        left = patch_spinor(u, z, m2.compose(m1))
        right = patch_spinor(patch_spinor(u, z, m1), m1.apply(z), m2)
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_conformal_ratio_identities():
    ident = mobius_for_point(0.0, 0.0)
    assert conformal_ratio(0.33 - 1.0j, ident) == 1.0

    rng = np.random.default_rng(6)
    for _ in range(200):
        m = mobius_for_point(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi))
        z = complex(rng.normal(), rng.normal())
        direct = conformal_factor(z) / conformal_factor(m.apply(z))
        assert abs(direct - conformal_ratio(z, m)) < 1e-12
    m = mobius_for_point(1.0, 2.0)
    assert conformal_ratio(0.0, m) == pytest.approx(1.0 / abs(m.d) ** 2)


def test_w_constant_on_origin_circles():
    for radius in (0.5, 2.0, 4.0):
        pts = radius * np.exp(1j * np.linspace(0, 2 * math.pi, 64))
        vals = conformal_factor(pts)
        assert np.ptp(vals) < 1e-15


def test_sphere_to_disc_reduction_shape():
    dom = sphere_with_holes(
        [Hole(1.0 + 0.5j, 0.4), Hole(-1.4, 0.5), Hole(0.0, 4.0)], omitted_hole=2
    )
    fld = FieldSpec(
        bumps=[RadialBump(0.3 - 0.9j, 0.5, pi_flux(2))],
        hole_fluxes=[pi_flux("1/2"), pi_flux("1/2"), pi_flux(-3)],
    )
    red = sphere_to_disc(dom, fld)
    assert red.disc_domain.radius_out == 4.0
    assert len(red.disc_domain.holes) == 2
    assert [float(p) for p in red.disc_field.hole_fluxes] == \
        pytest.approx([math.pi / 2, math.pi / 2])

    bad = FieldSpec(bumps=fld.bumps,
                    hole_fluxes=[pi_flux("1/2"), pi_flux("1/2"), pi_flux(-2)])
    with pytest.raises(SphereFluxMismatch):
        sphere_to_disc(dom, bad)


def test_concentric_caps_reduce_to_annulus():
    # two antipodal polar caps: the projected domain is a concentric annulus
    dom = sphere_with_holes([Hole(0.0, 0.5), Hole(0.0, 4.0)], omitted_hole=1)
    fld = FieldSpec(hole_fluxes=[pi_flux(1), pi_flux(-1)])
    red = sphere_to_disc(dom, fld)
    assert red.disc_domain.holes[0].center == 0.0
    assert red.disc_domain.radius_out == 4.0


def test_sphere_count_sweep_quarter_pi_grid():
    # semi-total flux k*pi/4 for |k| <= 12; count == |floor_strict(k/8 + 1/2)|
    import math
    from fractions import Fraction

    def strict_floor(y):
        m = math.floor(y)
        return m - 1 if m == y else m

    dom = sphere_with_holes([Hole(1.0, 0.4), Hole(0.0, 4.0)], omitted_hole=1)
    for k in range(-12, 13):
        semi = Fraction(k, 4)
        hole0 = Fraction(1, 4)  # already normalized; bulk carries the rest
        bulk = semi - hole0
        fld = FieldSpec(bumps=[RadialBump(-1.2, 0.5, pi_flux(bulk))],
                        hole_fluxes=[pi_flux(hole0), pi_flux(-bulk - hole0)])
        red = sphere_to_disc(dom, fld)
        got = count_zero_modes(red.disc_domain, red.disc_field).count
        assert got == abs(strict_floor(Fraction(k, 8) + Fraction(1, 2))), k
        assert count_zero_modes(dom, fld).count == got


def test_sphere_count_matches_reduced_disc_and_mode_verifies():
    dom = sphere_with_holes(
        [Hole(1.0 + 0.5j, 0.4), Hole(-1.4, 0.5), Hole(0.0, 4.0)], omitted_hole=2
    )
    fld = FieldSpec(
        bumps=[RadialBump(0.3 - 0.9j, 0.5, pi_flux(2))],
        hole_fluxes=[pi_flux("1/2"), pi_flux("1/2"), pi_flux(-3)],
    )
    counted = count_zero_modes(dom, fld)
    assert (counted.count, counted.chirality) == (1, Chirality.UP)
    red = sphere_to_disc(dom, fld)
    flat = count_zero_modes(red.disc_domain, red.disc_field)
    assert (flat.count, flat.chirality) == (counted.count, counted.chirality)

    pot = PotentialField(fld, dom)
    basis = build_basis(dom, fld, pot)
    assert basis.w_dressed
    mode = basis.modes()[0]
    assert verify_mode(mode, dom, fld, pot).pde_residual < 1e-6

    # the dressing really is W^{-1/2} against the flat evaluation
    z = np.array([2.0 + 0.3j, -1.9j])
    flat_mode = build_basis(red.disc_domain, red.disc_field,
                            PotentialField(red.disc_field, red.disc_domain)).modes()[0]
    np.testing.assert_allclose(
        mode.eval(z), flat_mode.eval(z) / np.sqrt(conformal_factor(z)), rtol=1e-12
    )
