"""Counting theorems, mode construction, and the verification oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zeromodes import (
    Chirality,
    EmptyBasis,
    FieldSpec,
    GridSpec,
    GridTooCoarse,
    Hole,
    KernelChoice,
    PotentialField,
    Profile,
    RadialBump,
    ZeroMode,
    analytic_extension_check,
    build_basis,
    count_zero_modes,
    disc_with_holes,
    laurent_coefficients,
    pi_flux,
    plane_with_holes,
    verify_mode,
)

PLANE = plane_with_holes([])
DISC = disc_with_holes(5.0)


def bulk_only(phi_pi, q=0, kernel=KernelChoice.DEFAULT):
    return FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(phi_pi))],
                     hole_fluxes=[], q_shift=q, kernel_choice=kernel)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("phi_pi, count, chi", [
    (5, 2, Chirality.UP),       # floor_strict(2.5) = 2
    (2, 0, Chirality.NONE),     # strict floor of 1
    (-5, 2, Chirality.DOWN),
    (0, 0, Chirality.NONE),
    ("1/2", 0, Chirality.NONE),
])
def test_plane_counts(phi_pi, count, chi):
    got = count_zero_modes(PLANE, bulk_only(phi_pi))
    assert (got.count, got.chirality) == (count, chi)


@pytest.mark.parametrize("phi_pi, q, count, chi", [
    (1, 0, 0, Chirality.NONE),      # no modes for flux in (-pi, pi]
    (3, 0, 1, Chirality.UP),
    (-3, 0, 2, Chirality.DOWN),     # extra mode versus the plane
    (2, 1, 2, Chirality.UP),        # floor_strict(1 + 1 + 1/2) = 2
    (-1, 0, 1, Chirality.DOWN),     # window edge -pi
    (2, 0, 1, Chirality.UP),
])
def test_disc_counts(phi_pi, q, count, chi):
    got = count_zero_modes(DISC, bulk_only(phi_pi, q=Fraction(q)))
    assert (got.count, got.chirality) == (count, chi)


def test_disc_alternate_kernel_count():
    got = count_zero_modes(DISC, bulk_only(3, kernel=KernelChoice.ALTERNATE))
    assert (got.count, got.chirality) == (2, Chirality.UP)
    got = count_zero_modes(DISC, bulk_only(-1, kernel=KernelChoice.ALTERNATE))
    assert got.count == 0
    got = count_zero_modes(DISC, bulk_only(1, kernel=KernelChoice.ALTERNATE))
    assert (got.count, got.chirality) == (1, Chirality.UP)


def test_plane_charge_conjugation_symmetry():
    for k in range(-48, 49):
        plus = count_zero_modes(PLANE, bulk_only(Fraction(k, 8)))
        minus = count_zero_modes(PLANE, bulk_only(Fraction(-k, 8)))
        assert plus.count == minus.count
        if plus.count:
            assert {plus.chirality, minus.chirality} == {Chirality.UP, Chirality.DOWN}


def test_disc_q_flux_tradeoff():
    # count(Phi, q) == count(Phi + 2 pi k, q - k)
    for k in (-2, -1, 1, 3):
        for mult in (Fraction(1, 3), Fraction(-5, 2), Fraction(7, 8)):
            a = count_zero_modes(DISC, bulk_only(mult, q=Fraction(1, 2)))
            b = count_zero_modes(DISC, bulk_only(mult + 2 * k, q=Fraction(1, 2) - k))
            assert (a.count, a.chirality) == (b.count, b.chirality)


def test_disc_staircase_jumps_only_at_half_integer_thresholds():
    for q in (Fraction(0), Fraction(1, 2), Fraction(-1)):
        prev = None
        mult = Fraction(-6)
        while mult <= 6:
            fld = bulk_only(mult, q=q)
            cnt = count_zero_modes(DISC, fld).count
            if prev is not None:
                jumped = cnt != prev
                # the strict floor increments when an integer lies in
                # [y_prev, y_cur): landing exactly on an integer jumps one
                # step later
                y = mult / 2 + q + Fraction(1, 2)
                y_prev = y - Fraction(1, 16)
                crossed = y_prev <= math.ceil(y_prev) < y
                assert jumped == crossed, (q, mult, cnt, prev)
                if jumped:
                    assert abs(cnt - prev) == 1
            prev = cnt
            mult += Fraction(1, 8)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_basis_degrees_examples():
    pot = PotentialField(bulk_only(3), DISC)
    basis = build_basis(DISC, bulk_only(3), pot)
    assert basis.degrees == [0] and basis.chirality is Chirality.UP

    potp = PotentialField(bulk_only(5), PLANE)
    basis = build_basis(PLANE, bulk_only(5), potp)
    assert basis.degrees == [0, 1]

    with pytest.raises(EmptyBasis):
        build_basis(PLANE, bulk_only(2), PotentialField(bulk_only(2), PLANE))


def test_mode_evaluation_matches_envelope():
    fld = bulk_only(3)
    pot = PotentialField(fld, DISC)
    mode = build_basis(DISC, fld, pot).modes()[0]
    z = 1.3 - 0.4j
    assert mode.eval(z) == pytest.approx(np.exp(pot.eval_h(z)))
    assert mode.eval_g(z) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------

DOM1 = disc_with_holes(3.0, [Hole(1.2 + 0.4j, 0.35)])
FLD1 = FieldSpec(
    bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux("5/2"))],
    hole_fluxes=[pi_flux("1/2")],
)


@pytest.fixture(scope="module")
def disc_problem():
    pot = PotentialField(FLD1, DOM1)
    return DOM1, FLD1, pot


def test_verify_constructed_mode_passes(disc_problem):
    dom, fld, pot = disc_problem
    mode = build_basis(dom, fld, pot).modes()[0]
    report = verify_mode(mode, dom, fld, pot)
    assert report.pde_residual < 1e-6
    assert all(v < 1e-6 for v in report.trace_leakage.values())
    assert report.passed
    assert report.richardson_factor is None or report.richardson_factor > 8


def test_verify_rejects_mode_after_flux_perturbation(disc_problem):
    dom, fld, pot = disc_problem
    mode = build_basis(dom, fld, pot).modes()[0]
    # same candidate, field perturbed to total flux pi: counting gives zero
    fld_pi = FieldSpec(
        bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux("1/2"))],
        hole_fluxes=[pi_flux("1/2")],
    )
    pot_pi = PotentialField(fld_pi, DOM1)
    report = verify_mode(mode, dom, fld_pi, pot_pi)
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_verify_rejects_constant_spinor_at_zero_flux():
    dom = disc_with_holes(2.0)
    fld = FieldSpec()
    pot = PotentialField(fld, dom)
    mode = ZeroMode(Chirality.UP, {0: 1.0 + 0.0j}, pot, dom)
    report = verify_mode(mode, dom, fld, pot)
    assert report.pde_residual < 1e-12  # the constant really solves the PDE
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_verify_next_degree_fails(disc_problem):
    dom, fld, pot = disc_problem
    mode = ZeroMode(Chirality.UP, {1: 1.0 + 0.0j}, pot, dom)
    report = verify_mode(mode, dom, fld, pot)
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_grid_too_coarse_surfaces(disc_problem):
    dom, fld, pot = disc_problem
    mode = build_basis(dom, fld, pot).modes()[0]
    coarse = GridSpec(radial=8, angular=32, bulk_divisor=4, fd_step=0.08)
    with pytest.raises(GridTooCoarse):
        verify_mode(mode, dom, fld, pot, coarse, tol_residual=1e-12)


def test_plane_modes_pass_and_candidate_violates_exponent():
    dom = plane_with_holes([Hole(1.5, 0.4)])
    fld = FieldSpec(bumps=[RadialBump(-1.0, 0.7, pi_flux("9/2"))],
                    hole_fluxes=[pi_flux("1/2")])
    pot = PotentialField(fld, dom)
    basis = build_basis(dom, fld, pot)
    assert basis.degrees == [0, 1]
    for mode in basis.modes():
        report = verify_mode(mode, dom, fld, pot)
        assert report.passed and report.integrability_exponent_ok
    candidate = ZeroMode(Chirality.UP, {2: 1.0 + 0.0j}, pot, dom)
    report = verify_mode(candidate, dom, fld, pot)
    assert report.integrability_exponent_ok is False
    assert not report.passed


def test_gauge_invariance_of_counts_and_amplitudes():
    dom = disc_with_holes(3.0, [Hole(1.2, 0.3), Hole(-1.1 + 0.8j, 0.3)])
    base = FieldSpec(bumps=[RadialBump(0.2 - 1.2j, 0.5, pi_flux(2))],
                     hole_fluxes=[pi_flux("1/2"), pi_flux("-2/3")])
    shifted = FieldSpec(bumps=base.bumps,
                        hole_fluxes=[pi_flux("5/2"), pi_flux("-2/3")])
    a = count_zero_modes(dom, base)
    b = count_zero_modes(dom, shifted)
    assert (a.count, a.chirality) == (b.count, b.chirality)

    pot_a = PotentialField(base, dom)
    pot_b = PotentialField(shifted, dom)
    mode_a = build_basis(dom, base, pot_a).modes()[0]
    mode_b = build_basis(dom, shifted, pot_b).modes()[0]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64)
    pts = pts[(np.abs(pts - 1.2) > 0.35) & (np.abs(pts + 1.1 - 0.8j) > 0.35)]
    np.testing.assert_allclose(np.abs(mode_a.eval(pts)), np.abs(mode_b.eval(pts)),
                               rtol=0, atol=1e-8)

    # the explicit unitary: shifting hole 0 by 2 pi multiplies the mode by the
    # unimodular winding factor, so amplitudes built from the raw potential
    # h_raw = h - log|z - w_0| also agree pointwise
    w0 = 1.2
    u_raw = np.exp(pot_a.eval_h(pts) - np.log(np.abs(pts - w0))) * (pts - w0)
    u_norm = np.exp(pot_a.eval_h(pts)) * np.abs(pts - w0) / np.abs(pts - w0)
    np.testing.assert_allclose(np.abs(u_raw), np.abs(np.exp(pot_a.eval_h(pts))),
                               rtol=1e-12)
    del u_norm


# ---------------------------------------------------------------------------
# analytic extension
# ---------------------------------------------------------------------------


def test_analytic_extension_for_basis_mode(disc_problem):
    dom, fld, pot = disc_problem
    mode = build_basis(dom, fld, pot).modes()[0]
    assert analytic_extension_check(mode, 0)


def test_laurent_detects_injected_pole(disc_problem):
    dom, fld, pot = disc_problem
    w = 1.2 + 0.4j
    coeffs = laurent_coefficients(lambda z: 1.0 / (z - w), w, [0.5, 0.7, 0.9])
    assert coeffs[-1] == pytest.approx(1.0, abs=1e-10)
    top = max(abs(v) for v in coeffs.values())
    assert abs(coeffs[-1]) > 0.99 * top


def test_laurent_constant_is_clean():
    coeffs = laurent_coefficients(lambda z: np.ones_like(z), 0.3j, [0.4, 0.6, 0.8])
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    rest = max(abs(v) for k, v in coeffs.items() if k != 0)
    assert rest < 1e-12


def test_analytic_extension_rejects_pole_at_hole_centre():
    dom = disc_with_holes(3.0, [Hole(0.0, 0.4)])
    fld = FieldSpec(bumps=[RadialBump(1.5, 0.5, pi_flux(3))],
                    hole_fluxes=[pi_flux(0)])
    pot = PotentialField(fld, dom)
    good = build_basis(dom, fld, pot).modes()[0]
    assert analytic_extension_check(good, 0)
    # a coefficient at degree -1 puts a genuine pole of g at the hole centre
    poisoned = ZeroMode(Chirality.UP, {-1: 1.0 + 0.0j}, pot, dom)
    assert not analytic_extension_check(poisoned, 0)


def test_kernel_choice_splits_threshold_modes():
    # total flux 3 pi puts the outer threshold exactly on an integer: the
    # degree-1 monomial is the swapped kernel vector, admitted only by the
    # alternate choice
    dom = disc_with_holes(3.0, [Hole(1.2, 0.3)])
    make = lambda kernel: FieldSpec(
        bumps=[RadialBump(-1.0, 0.5, pi_flux("5/2"))],
        hole_fluxes=[pi_flux("1/2")],
        kernel_choice=kernel,
    )
    fld_d, fld_a = make(KernelChoice.DEFAULT), make(KernelChoice.ALTERNATE)
    assert count_zero_modes(dom, fld_d).count == 1
    assert count_zero_modes(dom, fld_a).count == 2

    pot_d = PotentialField(fld_d, dom)
    pot_a = PotentialField(fld_a, dom)
    alt_basis = build_basis(dom, fld_a, pot_a)
    assert alt_basis.degrees == [0, 1]
    for mode in alt_basis.modes():
        assert verify_mode(mode, dom, fld_a, pot_a).passed

    threshold_mode = ZeroMode(Chirality.UP, {1: 1.0 + 0.0j}, pot_d, dom)
    report = verify_mode(threshold_mode, dom, fld_d, pot_d)
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_down_mode_verifies():
    dom = disc_with_holes(3.0, [Hole(-1.3, 0.35)])
    fld = FieldSpec(bumps=[RadialBump(0.9, 0.6, pi_flux("-5/2"))],
                    hole_fluxes=[pi_flux("-1/2")])
    pot = PotentialField(fld, dom)
    counted = count_zero_modes(dom, fld)
    assert (counted.count, counted.chirality) == (2, Chirality.DOWN)
    basis = build_basis(dom, fld, pot)
    for mode in basis.modes():
        report = verify_mode(mode, dom, fld, pot)
        assert report.passed, report
        assert analytic_extension_check(mode, 0)
