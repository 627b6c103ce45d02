"""Counting theorems, mode construction, and the verification oracles."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeromodes import (
    Chirality,
    DomainKind,
    DomainSpec,
    EmptyBasis,
    FieldSpec,
    GridSpec,
    GridTooCoarse,
    Hole,
    KernelChoice,
    PotentialField,
    Profile,
    RadialBump,
    SingularPoint,
    ZeroMode,
    boundary_spectra,
    build_basis,
    conformal_factor,
    count_zero_modes,
    disc_with_holes,
    flat_problem,
    leakage,
    pi_flux,
    plane_with_holes,
    sphere_to_disc,
    sphere_with_holes,
    trace_from_samples,
    verify_mode,
    verify_modes,
)
from zeromodes import zero_modes

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
    got = count_zero_modes(flat_problem(PLANE, bulk_only(phi_pi)))
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
    got = count_zero_modes(flat_problem(DISC, bulk_only(phi_pi, q=Fraction(q))))
    assert (got.count, got.chirality) == (count, chi)


def test_disc_alternate_kernel_count():
    got = count_zero_modes(flat_problem(DISC, bulk_only(3, kernel=KernelChoice.ALTERNATE)))
    assert (got.count, got.chirality) == (2, Chirality.UP)
    got = count_zero_modes(flat_problem(DISC, bulk_only(-1, kernel=KernelChoice.ALTERNATE)))
    assert got.count == 0
    got = count_zero_modes(flat_problem(DISC, bulk_only(1, kernel=KernelChoice.ALTERNATE)))
    assert (got.count, got.chirality) == (1, Chirality.UP)


def test_plane_charge_conjugation_symmetry():
    for k in range(-48, 49):
        plus = count_zero_modes(flat_problem(PLANE, bulk_only(Fraction(k, 8))))
        minus = count_zero_modes(flat_problem(PLANE, bulk_only(Fraction(-k, 8))))
        assert plus.count == minus.count
        if plus.count:
            assert {plus.chirality, minus.chirality} == {Chirality.UP, Chirality.DOWN}


def test_disc_q_flux_tradeoff():
    # count(Phi, q) == count(Phi + 2 pi k, q - k)
    for k in (-2, -1, 1, 3):
        for mult in (Fraction(1, 3), Fraction(-5, 2), Fraction(7, 8)):
            a = count_zero_modes(flat_problem(DISC, bulk_only(mult, q=Fraction(1, 2))))
            b = count_zero_modes(flat_problem(DISC, bulk_only(mult + 2 * k, q=Fraction(1, 2) - k)))
            assert (a.count, a.chirality) == (b.count, b.chirality)


def test_disc_staircase_jumps_only_at_half_integer_thresholds():
    for q in (Fraction(0), Fraction(1, 2), Fraction(-1)):
        prev = None
        mult = Fraction(-6)
        while mult <= 6:
            fld = bulk_only(mult, q=q)
            cnt = count_zero_modes(flat_problem(DISC, fld)).count
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


@pytest.mark.parametrize("case", ["disc", "sphere"])
def test_mode_eval_keeps_the_shape_of_its_input(case):
    # a scalar in (Python, numpy or 0-d array) gives a scalar out, as eval_h
    # and eval_a do; an array gives an array of its shape
    dom, fld, pot, modes = _basis_case("disc-up" if case == "disc" else "sphere")
    mode = modes[-1]
    expected = mode.eval(np.array([1 + 1j]))
    assert expected.shape == (1,)
    for z in (1 + 1j, np.complex128(1 + 1j), np.array(1 + 1j)):
        for fn in (mode.eval, pot.eval_h, pot.eval_a):
            assert np.ndim(fn(z)) == 0, (fn, type(z))
        assert mode.eval(z) == expected[0]
    assert mode.eval(np.array([1 + 1j, 0.5j])).shape == (2,)


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
    assert report.richardson_factor > 8


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
    mode = ZeroMode(Chirality.UP, {0: 1.0 + 0.0j}, pot)
    report = verify_mode(mode, dom, fld, pot)
    assert report.pde_residual < 1e-12  # the constant really solves the PDE
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_verify_next_degree_fails(disc_problem):
    dom, fld, pot = disc_problem
    mode = ZeroMode(Chirality.UP, {1: 1.0 + 0.0j}, pot)
    report = verify_mode(mode, dom, fld, pot)
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_verify_fails_a_spinor_that_is_nan_at_one_residual_point(monkeypatch):
    # e^{h} is NaN at one point of the residual set, and nowhere else
    pot = PotentialField(FLD1, DOM1)
    grid = GridSpec(radial=16, angular=64, bulk_divisor=8)
    mode = build_basis(DOM1, FLD1, pot).modes()[0]
    assert verify_mode(mode, DOM1, FLD1, pot, grid).passed
    fd = zero_modes._fd_scale(DOM1, FLD1) * grid.fd_step_factor
    bad = _points(zero_modes._point_chunks(DOM1, FLD1, grid, fd))[100]
    eval_h = pot.eval_h
    monkeypatch.setattr(pot, "eval_h",
                        lambda z, plan=None: np.where(z == bad, np.nan, eval_h(z, plan)))
    report = verify_mode(mode, DOM1, FLD1, pot, grid)
    assert math.isnan(report.pde_residual)
    assert not report.passed


ZS = np.array([0.3 + 0.2j, -0.7 + 0.5j, 1.1 - 0.4j])


def _points(chunks):
    """The points of residual chunks, made and joined in order."""
    return np.concatenate([make() for _, make in chunks])


def _z3(z):
    return z ** 3


def _zbar(z):
    return np.conj(z)


def _residual_rows(components_at, ups, a, zs, step, weight=None):
    """Every spinor's residual at every point, one row per spinor, and its
    largest modulus, collected from the oracle's one chunk walk."""
    rows, moduli = [], []
    for s, c, _, r, modulus in zero_modes._residual_chunks(
            components_at, ups, a, zero_modes._array_chunks(zs), step, weight):
        lo = c * zero_modes._CHUNK_POINTS
        if lo == 0:
            rows.append(np.empty(zs.size))
            moduli.append(modulus)
        rows[s][lo:lo + r.size] = r
        moduli[s] = np.maximum(moduli[s], modulus)
    return np.array(rows), np.array(moduli)


def _zbar3(z):
    return np.conj(z) ** 3


def _z(z):
    return z


@pytest.mark.parametrize("up,down,expected", [
    pytest.param(_z3, None, 0.0, id="up-solution"),
    pytest.param(_zbar, None, 2.0, id="up-non-solution"),
    pytest.param(None, _zbar3, 0.0, id="down-solution"),
    pytest.param(None, _z, 2.0, id="down-non-solution"),
    pytest.param(_z3, _z, 2.0, id="both-report-the-max"),
    pytest.param(_zbar, _z, 2.0, id="both-report-the-max-not-the-sum"),
])
def test_dirac_residual_at_zero_potential(up, down, expected):
    # with a = 0 the equations are dbar u+ = 0 and d u- = 0; the fourth-order
    # stencil is exact on these polynomials, so only rounding is left
    spinor = [(fn, is_up) for fn, is_up in ((up, True), (down, False)) if fn is not None]
    (res,), _ = _residual_rows(lambda z: [fn(z) for fn, _ in spinor],
                               [is_up for _, is_up in spinor], lambda z: 0.0, ZS, 1e-2)
    assert res.shape == ZS.shape
    assert np.all(np.abs(res - expected) < 1e-12)


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
    candidate = ZeroMode(Chirality.UP, {2: 1.0 + 0.0j}, pot)
    *reports, report = verify_modes(basis.modes() + [candidate])
    for mode_report in reports:
        assert mode_report.passed and mode_report.integrability_exponent_ok
    assert report.integrability_exponent_ok is False
    assert not report.passed


def test_gauge_invariance_of_counts_and_amplitudes():
    dom = disc_with_holes(3.0, [Hole(1.2, 0.3), Hole(-1.1 + 0.8j, 0.3)])
    base = FieldSpec(bumps=[RadialBump(0.2 - 1.2j, 0.5, pi_flux(2))],
                     hole_fluxes=[pi_flux("1/2"), pi_flux("-2/3")])
    shifted = FieldSpec(bumps=base.bumps,
                        hole_fluxes=[pi_flux("5/2"), pi_flux("-2/3")])
    a = count_zero_modes(flat_problem(dom, base))
    b = count_zero_modes(flat_problem(dom, shifted))
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


def test_polyval_powers_against_mpmath():
    # z^n built by one multiply per degree stays within 4 n eps of the
    # 50-digit power, for degrees 0 to 200 at points of modulus up to 3
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    zs = 3.0 * np.sqrt(rng.random(24)) * np.exp(2j * math.pi * rng.random(24))
    zs = np.concatenate([zs, [3.0, -3.0j, 1.0, 0.5 + 0.5j, -2.9999 + 0.001j]])
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        powers = zero_modes._powers(zs, 0, 200, np.ones_like(zs))
        for n in range(201):
            for z, value in zip(zs, powers[n]):
                exact = mpmath.mpc(z.real, z.imag) ** n
                err = abs(mpmath.mpc(value.real, value.imag) - exact) / abs(exact)
                assert float(err) <= 4 * n * eps, (n, z)


def _full_row_worst(res, scale, residual_at, step, tol):
    """The worst-point reduction over a whole residual row: divide the row by
    the spinor's size, argmax it and halve the step there.  Returns the
    scaled residual and its step-halving ratio, or raises GridTooCoarse."""
    res = res / scale
    idx = int(np.argmax(res))
    residual = float(res[idx])
    residual_half = float(residual_at(slice(idx, idx + 1), step / 2)[0]) / scale
    if abs(residual - residual_half) > 10.0 * tol:
        raise GridTooCoarse(f"residual {residual:.3e} vs {residual_half:.3e} "
                            f"under step halving from step {step:.3e}")
    return residual, residual / residual_half if residual_half > 0 else math.inf


def _reference_report(mode, dom, fld, pot, grid, tol):
    """One mode verified on its own from the public oracle pieces, with the
    spinor evaluated through the mode's own eval and the residual reduced
    over the whole row at once."""
    red_dom, red_fld = sphere_to_disc(dom, fld) if dom.kind is DomainKind.SPHERE else (dom, fld)
    flat = ZeroMode(mode.chirality, mode.coefficients, PotentialField(red_fld, red_dom)).eval
    ups = (mode.chirality is Chirality.UP,)
    fd = grid.fd_step if grid.fd_step is not None \
        else zero_modes._fd_scale(red_dom, red_fld) * grid.fd_step_factor
    zs = _points(zero_modes._point_chunks(red_dom, red_fld, grid, fd))

    def weight(z):
        w = conformal_factor(z)
        return w ** (-1.5), w ** (-0.5)

    def residual_at(sel, step):
        rows, moduli = _residual_rows(lambda z: (flat(z),), ups, pot.eval_a, zs[sel], step,
                                      weight if mode.w_dressed else None)
        return rows[0], float(moduli[0])

    res, modulus = residual_at(slice(None), fd)
    pde = _full_row_worst(res, modulus, lambda sel, step: residual_at(sel, step)[0], fd, tol)

    phis = np.linspace(0.0, 2.0 * math.pi, grid.n_boundary_samples, endpoint=False)
    leakages = {}
    for label, spec in boundary_spectra(flat_problem(dom, fld)).items():
        center = 0.0 if spec.is_outer else red_dom.holes[spec.boundary].center
        samples = flat(center + spec.radius * np.exp(1j * phis))
        samples = samples / math.sqrt(float(np.mean(np.abs(samples) ** 2)))
        exponent = pot.boundary_phase_exponent(center, spec.radius, phis)
        leakages[label] = leakage(trace_from_samples(spec, phis, samples, exponent),
                                  spec, mode.chirality)
    return pde, leakages


def _spin_up_disc():
    dom = disc_with_holes(3.0, [Hole(1.2 + 0.4j, 0.35)])
    fld = FieldSpec(bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux("5/2")),
                           RadialBump(0.6 - 1.4j, 0.5, pi_flux(3))],
                    hole_fluxes=[pi_flux("1/2")])
    return dom, fld


def _basis_case(case):
    if case == "disc-up":
        dom, fld = _spin_up_disc()
    elif case == "disc-down":
        dom = disc_with_holes(3.0, [Hole(-1.3, 0.35)])
        fld = FieldSpec(bumps=[RadialBump(0.9, 0.6, pi_flux("-5/2"))],
                        hole_fluxes=[pi_flux("-1/2")])
    elif case == "sphere":
        dom = sphere_with_holes([Hole(1.0 + 0.5j, 0.4), Hole(-0.9 - 1.2j, 0.3),
                                 Hole(0.0, 4.0)], omitted_hole=2)
        fld = FieldSpec(bumps=[RadialBump(-1.0 + 0.9j, 0.5, pi_flux(5), Profile.UNIFORM_DISC)],
                        hole_fluxes=[pi_flux("1/2"), pi_flux("-1/4"), pi_flux("-21/4")])
    elif case == "disc-high":  # x = 35/4: nine modes, degrees 0 to 8
        dom = disc_with_holes(3.0, [Hole(1.2 + 0.4j, 0.35)])
        fld = FieldSpec(bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux(17))],
                        hole_fluxes=[pi_flux("1/2")])
    else:
        dom = plane_with_holes([Hole(1.5, 0.4)])
        fld = FieldSpec(bumps=[RadialBump(-1.0, 0.7, pi_flux("9/2"))],
                        hole_fluxes=[pi_flux("1/2")])
    pot = PotentialField(fld, dom)
    basis = build_basis(dom, fld, pot)
    modes = basis.modes()
    if case == "disc-up":
        modes.insert(1, ZeroMode(Chirality.UP, {0: 1.0, 2: 0.5j}, pot))
    if case == "plane":
        modes.append(ZeroMode(Chirality.UP, {2: 1.0 + 0.0j}, pot))
    if case == "disc-high":  # a dict whose degrees are not in ascending order
        modes.append(ZeroMode(Chirality.UP, {5: 0.3, 0: 1.0, 2: 0.5j}, pot))
    return dom, fld, pot, modes


@pytest.mark.parametrize("case", ["disc-up", "disc-down", "sphere", "plane", "disc-high"])
def test_verify_modes_matches_per_mode_reference(case, monkeypatch):
    # small chunks, so the shared pass crosses many chunk edges and ends on a
    # partial chunk
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    dom, fld, pot, modes = _basis_case(case)
    grid = GridSpec(radial=16, angular=64, bulk_divisor=8)
    reports = verify_modes(modes, grid)
    assert len(reports) == len(modes) >= 2
    for mode, report in zip(modes, reports):
        (pde, ratio), leakages = _reference_report(mode, dom, fld, pot, grid, 1e-6)
        assert (report.pde_residual, report.richardson_factor) == (pde, ratio)
        assert report.trace_leakage.keys() == leakages.keys()
        for label, value in leakages.items():
            assert abs(report.trace_leakage[label] - value) <= 1e-15 * abs(value)
    if case == "plane":
        assert [r.integrability_exponent_ok for r in reports] == [True, True, False]
    if case == "disc-up":  # three basis modes, and a combination of them
        assert len(modes) == 4 and all(r.passed for r in reports)
    if case == "disc-high":
        assert [m.degree for m in modes] == list(range(9)) + [5]


def test_verify_modes_raises_for_the_first_coarse_mode():
    dom, fld = _spin_up_disc()
    pot = PotentialField(fld, dom)
    modes = build_basis(dom, fld, pot).modes()
    coarse = GridSpec(radial=8, angular=32, bulk_divisor=4, fd_step=0.08)
    # between the step-halving gaps of mode 0 (1.04e-2) and mode 1 (1.10e-2)
    tol = 1.07e-3
    expected = None
    for n, mode in enumerate(modes):
        try:
            _reference_report(mode, dom, fld, pot, coarse, tol)
        except GridTooCoarse as exc:
            expected = str(exc)
            break
    assert n == 1 and expected is not None
    with pytest.raises(GridTooCoarse) as info:
        verify_modes(modes, coarse, tol_residual=tol)
    assert str(info.value) == expected


def test_verify_modes_rejects_modes_of_different_kinds(disc_problem):
    dom, fld, pot = disc_problem
    up = ZeroMode(Chirality.UP, {0: 1.0 + 0.0j}, pot)
    for other in (ZeroMode(Chirality.DOWN, {0: 1.0 + 0.0j}, pot),
                  ZeroMode(Chirality.UP, {0: 1.0 + 0.0j}, PotentialField(fld, dom))):
        with pytest.raises(ValueError, match="must share"):
            verify_modes([up, other])


def test_verify_modes_peak_memory_stays_below_one_parent_mode(monkeypatch):
    # a verify_disc_smooth-sized problem: 5 spin-up modes, 2 holes, 2 smooth
    # bumps, 278,730 residual points on the default grid; one worker, since
    # tracemalloc sees only this process
    _workers(monkeypatch, 1)
    dom = disc_with_holes(3.0, [Hole(1.827 + 0.732j, 0.35), Hole(-1.41 - 1.869j, 0.35)])
    fld = FieldSpec(bumps=[RadialBump(0.489 - 1.008j, 0.6, pi_flux("25/4")),
                           RadialBump(-1.294 + 1.129j, 0.6, pi_flux(5))],
                    hole_fluxes=[pi_flux(1), pi_flux("-7/4")])
    pot = PotentialField(fld, dom)
    modes = build_basis(dom, fld, pot).modes()
    assert len(modes) == 5
    tracemalloc.start()
    try:
        reports = verify_modes(modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    # the traced peak of ONE verify_mode call before the shared basis pass
    # (every stencil shift held at full size), measured as 49.2 MB
    assert peak <= 49.2e6


def test_verify_modes_memory_does_not_grow_with_modes_times_points(monkeypatch):
    # 16 candidate modes on 404,501 points (25 chunks): one residual row per
    # mode would add 15 x points x 8 B = 48.5 MB over a single mode; the
    # streamed worst points add one chunk's working set per mode (measured
    # 8.3 MB, against 58 MB with whole rows); one worker, as above
    _workers(monkeypatch, 1)
    dom, fld = disc_with_holes(3.0), FieldSpec()
    pot = PotentialField(fld, dom)
    grid = GridSpec(bulk_divisor=44)
    fd = zero_modes._fd_scale(dom, fld) * grid.fd_step_factor
    points = _points(zero_modes._point_chunks(dom, fld, grid, fd)).size
    assert points > 20 * zero_modes._CHUNK_POINTS
    peaks = []
    for count in (1, 16):
        modes = [ZeroMode(Chirality.UP, {n: 1.0 + 0.0j}, pot) for n in range(count)]
        tracemalloc.start()
        try:
            verify_modes(modes, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * points * 8 / 4


def test_the_half_step_walk_does_not_grow_with_the_mode_count(monkeypatch):
    # every mode's worst point is re-evaluated at half the step in one shared
    # walk, so 16 modes take as many e^{h} evaluations as one
    pot = PotentialField(FLD1, DOM1)
    grid = GridSpec(radial=16, angular=64, bulk_divisor=8)
    eval_h = pot.eval_h
    calls = []

    def counted(z, plan=None):
        calls.append(1)
        return eval_h(z, plan)

    monkeypatch.setattr(pot, "eval_h", counted)
    counts = []
    for count in (1, 16):
        modes = [ZeroMode(Chirality.UP, {n: 1.0 + 0.0j}, pot) for n in range(count)]
        calls.clear()
        verify_modes(modes, grid, tol_residual=1.0, tol_leakage=1.0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_nan_residual_in_a_later_chunk_fails_the_mode(monkeypatch):
    # e^{h} is NaN at one stencil point of residual point 2500 (the third
    # chunk), so that point's residual is NaN while every modulus stays
    # finite: only the reduction can carry the NaN to the report, and a
    # running maximum kept with `>` would drop it and pass the mode
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    pot = PotentialField(FLD1, DOM1)
    grid = GridSpec(radial=16, angular=64, bulk_divisor=8)
    mode = build_basis(DOM1, FLD1, pot).modes()[0]
    assert verify_mode(mode, DOM1, FLD1, pot, grid).passed
    fd = zero_modes._fd_scale(DOM1, FLD1) * grid.fd_step_factor
    bad = _points(zero_modes._point_chunks(DOM1, FLD1, grid, fd))[2500] + fd
    eval_h = pot.eval_h
    monkeypatch.setattr(pot, "eval_h",
                        lambda z, plan=None: np.where(z == bad, np.nan, eval_h(z, plan)))
    report = verify_mode(mode, DOM1, FLD1, pot, grid)
    assert math.isnan(report.pde_residual)
    assert not report.passed


def test_a_zero_spinor_divides_in_numpy_and_fails(disc_problem):
    # its largest modulus is 0: the scaled residual is numpy's 0/0 = NaN, not a
    # Python ZeroDivisionError
    dom, fld, pot = disc_problem
    with pytest.warns(RuntimeWarning):
        report = verify_mode(ZeroMode(Chirality.UP, {0: 0j}, pot), dom, fld, pot)
    assert math.isnan(report.pde_residual)
    assert not report.passed


@pytest.mark.parametrize("case", ["opposite-signs", "unbalanced", "bent-up", "bent-down"])
def test_bm_verify_matches_full_row_reference(case, monkeypatch):
    # the larger of the two components' streamed worst points equals the
    # argmax of np.maximum over both whole residual rows
    from zeromodes import BMConfig, bm_verify, bm_zero_mode
    from zeromodes.geometry import Annulus

    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    cfg = BMConfig(1.0, 2.0, 2 * math.pi, 1.0, -2.0) if case == "unbalanced" \
        else BMConfig(1.0, 2.0, math.pi, 1.0, -1.0)
    mode = bm_zero_mode(cfg)
    if case.startswith("bent"):
        up_bend, down_bend = (0.5, 0.0) if case == "bent-up" else (0.0, 0.5)

        class Bent(type(mode)):
            def eval_up(self, z):
                return np.abs(z) ** up_bend * super().eval_up(z)

            def eval_down(self, z):
                return np.abs(z) ** down_bend * super().eval_down(z)

        mode = Bent(mode.n, mode.exponent, mode.config)
    report = bm_verify(cfg, mode)

    grid = GridSpec()
    zs = _points(zero_modes._polar_chunks(0.0, Annulus(cfg.r_inner, cfg.r_outer),
                                          grid.radial, grid.angular))
    x = float(cfg.phi) / (2 * math.pi)

    def residual_at(sel, step):
        # each component's row on its own, so the reference does not share the
        # oracle's grouping of the two components into one spinor
        rows, moduli = zip(*(_residual_rows(lambda z: (fn(z),), (up,),
                                            lambda z: 1j * x * z / np.abs(z) ** 2,
                                            zs[sel], step)
                             for fn, up in ((mode.eval_up, True), (mode.eval_down, False))))
        return np.maximum(rows[0][0], rows[1][0]), float(np.max(moduli))

    step = grid.fd_step_factor * cfg.r_inner
    res, scale = residual_at(slice(None), step)
    expected = _full_row_worst(res, scale, lambda sel, h: residual_at(sel, h)[0], step, 1e-6)
    assert (report.pde_residual, report.richardson_factor) == expected
    assert (report.pde_residual > 0.1) == case.startswith("bent")


def _full_lattice_bulk(domain, fld, grid, fd_step):
    """The bulk point set from the whole n x n lattice, masked at once."""
    spacing = zero_modes._grid_reference(domain, fld) / grid.bulk_divisor
    if domain.kind is DomainKind.DISC:
        lo, hi = -domain.radius_out, domain.radius_out
    else:
        xs = [h.center.real for h in domain.holes] + [b.center.real for b in fld.bumps]
        ys = [h.center.imag for h in domain.holes] + [b.center.imag for b in fld.bumps]
        ext = [h.radius for h in domain.holes] + [b.support_radius for b in fld.bumps]
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
            keep &= np.abs(np.abs(zz - b.center) - b.support_radius) > 3 * fd_step
    return zz[keep]


@pytest.mark.parametrize("chunk", [16384, 1000, 1])
@pytest.mark.parametrize("case", ["plane", "disc", "sphere", "uniform-ring", "doubled"])
def test_bulk_points_built_by_blocks_equal_the_full_lattice(case, chunk, monkeypatch):
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", chunk)
    grid = GridSpec()
    if case == "plane":
        dom, fld = _basis_case("plane")[:2]
    elif case == "sphere":  # the projected disc, with a uniform bump's ring
        dom, fld = sphere_to_disc(*_basis_case("sphere")[:2])
    elif case == "uniform-ring":
        dom = disc_with_holes(3.0)
        fld = FieldSpec(bumps=[RadialBump(0.5 - 0.2j, 1.1, pi_flux(3), Profile.UNIFORM_DISC)])
    else:
        dom, fld = _spin_up_disc()
        if case == "doubled":
            grid = GridSpec(max_bulk_points=5000)
    fd = zero_modes._fd_scale(dom, fld) * grid.fd_step_factor
    expected = _full_lattice_bulk(dom, fld, grid, fd)
    got = _points(zero_modes._bulk_chunks(dom, fld, grid, fd))
    assert got.size > 1000
    assert np.array_equal(got, expected)
    if case == "doubled":  # the spacing was doubled at least once
        assert 4 * got.size < _full_lattice_bulk(dom, fld, GridSpec(), fd).size


_CUT_CENTERS = st.complex_numbers(max_magnitude=4.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([DomainKind.DISC, DomainKind.PLANE]),
       holes=st.lists(st.tuples(_CUT_CENTERS, st.floats(0.05, 2.0)), max_size=3),
       bumps=st.lists(st.tuples(_CUT_CENTERS, st.floats(0.05, 2.0), st.booleans()),
                      max_size=3),
       fd_step=st.floats(1e-4, 0.2), divisor=st.integers(2, 64))
def test_windowed_masks_keep_the_points_of_the_unwindowed_lattice(kind, holes, bumps,
                                                                  fd_step, divisor):
    # each hole and uniform bump is tested only in its window of rows and
    # columns, and each block is filled by its real and imaginary parts:
    # the kept points equal those of the whole lattice built by the cast add
    # and masked everywhere, byte for byte
    if kind is DomainKind.PLANE and not holes and not bumps:
        holes = [(0j, 1.0)]
    dom = DomainSpec(kind, [Hole(c, r) for c, r in holes],
                     radius_out=3.0 if kind is DomainKind.DISC else None)
    fld = FieldSpec(bumps=[RadialBump(c, r, pi_flux(1),
                                      Profile.UNIFORM_DISC if uniform else Profile.SMOOTH_COMPACT)
                           for c, r, uniform in bumps])
    grid = GridSpec(bulk_divisor=divisor, max_bulk_points=20_000)
    got = _points(zero_modes._bulk_chunks(dom, fld, grid, fd_step))
    assert got.tobytes() == _full_lattice_bulk(dom, fld, grid, fd_step).tobytes()


def _whole_polar(center, annulus, radial, angular):
    """An annulus's polar grid as one array, row by row."""
    radii = annulus.inner + (annulus.outer - annulus.inner) * ((np.arange(radial) + 0.5) / radial)
    angles = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    return (center + radii[:, None] * np.exp(1j * angles[None, :])).ravel()


@pytest.mark.parametrize("chunk", [16384, 1000])
@pytest.mark.parametrize("angular", [256, 2500, 20000])
@pytest.mark.parametrize("case", ["disc-up", "sphere", "plane"])
def test_point_chunks_join_to_the_whole_point_set_in_order(case, angular, chunk, monkeypatch):
    # the annuli around the holes and inside the outer circle, then the bulk
    # lattice, as whole arrays; an annulus row longer than a chunk is split
    # by angle (angular 2500 with 1000-point chunks, 20000 with either)
    from zeromodes.geometry import OUTER, Annulus, annulus_probe
    from zeromodes.field import support_extents_from, support_radii_from

    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", chunk)
    dom, fld = _basis_case(case)[:2]
    if case == "sphere":
        dom, fld = sphere_to_disc(dom, fld)
    grid = GridSpec(radial=3, angular=angular, bulk_divisor=8)
    fd = zero_modes._fd_scale(dom, fld) * grid.fd_step_factor
    whole = [_whole_polar(h.center, annulus_probe(dom, j, support_radii_from(fld, h.center)),
                          grid.radial, grid.angular) for j, h in enumerate(dom.holes)]
    if dom.kind is DomainKind.DISC:
        probe = annulus_probe(dom, OUTER, support_extents_from(fld, 0.0))
        whole.append(_whole_polar(0.0, Annulus(probe.inner, probe.outer - 2 * fd),
                                  grid.radial, grid.angular))
    whole.append(_full_lattice_bulk(dom, fld, grid, fd))
    chunks = zero_modes._point_chunks(dom, fld, grid, fd)
    made = [make() for _, make in chunks]
    assert all(z.size <= min(size, chunk) for (size, _), z in zip(chunks, made))
    assert np.concatenate(made).tobytes() == np.concatenate(whole).tobytes()


def test_verify_memory_does_not_grow_with_the_lattice(monkeypatch):
    # doubling bulk_divisor quadruples the bulk lattice (205,000 to 822,000
    # points, 3.3 to 13.2 MB of complex points), and the traced peak of a
    # one-worker verify stays that of one chunk's working set: every chunk
    # is made when the walk reaches it, and no array holds the point set
    _workers(monkeypatch, 1)
    dom, fld = disc_with_holes(3.0), FieldSpec()
    pot = PotentialField(fld, dom)
    mode = ZeroMode(Chirality.UP, {0: 1.0 + 0.0j}, pot)
    verify_modes([mode], GridSpec(bulk_divisor=32))  # the potential's lazy set-up
    peaks = []
    for divisor in (32, 64):
        tracemalloc.start()
        try:
            verify_modes([mode], GridSpec(bulk_divisor=divisor))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0]


# ---------------------------------------------------------------------------
# the residual walk split over processes
# ---------------------------------------------------------------------------


def _workers(monkeypatch, n):
    """Split every residual walk into min(n, chunks) shares, whatever the
    CPUs of this process (conftest.py keeps it single-threaded)."""
    monkeypatch.setattr(zero_modes, "_worker_count", lambda chunks: min(n, chunks))


def _counted_forks(monkeypatch):
    """A list that gains one entry per os.fork call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_case(case):
    """A verify, as a call of no arguments, for each problem the split walk
    is compared on."""
    grid = GridSpec(radial=16, angular=64, bulk_divisor=8)
    if case == "bm":
        from zeromodes import BMConfig, bm_verify, bm_zero_mode

        cfg = BMConfig(1.0, 2.0, math.pi, 1.0, -1.0)
        return lambda: [bm_verify(cfg, bm_zero_mode(cfg))]
    if case == "sphere-workload":
        from test_benchmark_bindings import SPHERE
        from zeromodes import cli

        dom = cli.parse_domain(SPHERE["domain"])
        fld = cli.parse_field(SPHERE["field"], dom.n_holes)
        pot = PotentialField(fld, dom)
        modes = build_basis(dom, fld, pot).modes()
    else:
        dom, fld, pot, modes = _basis_case(case)
    return lambda: verify_modes(modes, grid)


@pytest.mark.parametrize("case", ["disc-up", "disc-down", "sphere", "plane", "disc-high",
                                  "sphere-workload", "bm"])
def test_split_walk_reports_equal_one_walk(case, monkeypatch):
    # 1000-point chunks, so share edges fall inside every point set
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    run = _split_case(case)
    _workers(monkeypatch, 1)
    forks = _counted_forks(monkeypatch)
    expected = run()
    assert not forks
    for n in (2, 3):
        _workers(monkeypatch, n)
        assert run() == expected, n
        assert forks, n
        _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_shares_are_joined_in_chunk_order(workers, monkeypatch):
    forks = _counted_forks(monkeypatch)
    starts = range(0, 5000, 1000)

    def walk(share):
        return [(lo, lo // 1000 % 2) for lo in share]

    assert zero_modes._in_shares(walk, starts, workers) == walk(starts)
    assert len(forks) == workers - 1
    _assert_no_child_left()


def test_shares_no_child_could_be_forked_for_are_walked_here(monkeypatch):
    fork, forks = os.fork, []

    def fork_once():  # the second fork finds no process to spare
        if forks:
            raise BlockingIOError("fork: resource temporarily unavailable")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    starts = range(0, 5000, 1000)
    assert zero_modes._in_shares(lambda share: list(share), starts, 3) == list(starts)
    assert forks == [1]
    _assert_no_child_left()


def test_bm_verify_annulus_is_one_chunk_and_never_forks(monkeypatch):
    from zeromodes import BMConfig, bm_verify, bm_zero_mode

    def refuse():
        raise AssertionError("forked")

    chunks, count = [], zero_modes._worker_count
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(zero_modes, "_worker_count", lambda n: chunks.append(n) or count(n))
    cfg = BMConfig(1.0, 2.0, math.pi, 1.0, -1.0)
    assert bm_verify(cfg, bm_zero_mode(cfg)).passed
    assert chunks == [1]


# 5000 points on a line, in five 1000-point chunks: two workers walk chunks
# [0, 3) and [3, 5), three walk [0, 2), [2, 4) and [4, 5).  The spinor is
# the constant 1, so its differences are exactly 0 and its residual at z is
# |a(z)|, set point by point.
_LINE = np.arange(5000) / 5000 + 0.5j


def _line_residuals(monkeypatch, workers, a_at):
    """pde_residuals of the constant spinor on _LINE with |a| from
    ``a_at(point index)``, and every point set ``a`` was called at here."""
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    _workers(monkeypatch, workers)
    calls = []

    def a(z):
        calls.append(z)
        index = np.rint((z.real - _LINE[0].real) * 5000).astype(int)
        return np.array([a_at(i) for i in index], dtype=complex)

    try:
        return zero_modes.pde_residuals(lambda z: (np.ones_like(z),), (True,), a,
                                        zero_modes._array_chunks(_LINE), 1e-3, 1.0), calls
    finally:
        _assert_no_child_left()


@pytest.mark.parametrize("points, whole", [(999, 0), (1999, 1), (2000, 2), (5000, 5)])
def test_only_whole_chunks_earn_a_worker(points, whole, monkeypatch):
    # a fork costs about as much as walking a partial chunk
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    chunks = []
    monkeypatch.setattr(zero_modes, "_worker_count", lambda n: chunks.append(n) or 1)
    zero_modes.pde_residuals(lambda z: (np.ones_like(z),), (True,), np.ones_like,
                             zero_modes._array_chunks(_LINE[:points]), 1e-3, 1.0)
    assert chunks == [whole]


@pytest.mark.parametrize("workers", [2, 3])
def test_split_walk_tie_goes_to_the_smaller_index(workers, monkeypatch):
    # equal worst residuals at points 1500 and 3500, in different shares:
    # the half step is taken at 1500, the point np.argmax picks
    (pde,), calls = _line_residuals(monkeypatch, workers,
                                    lambda i: 2.0 if i in (1500, 3500) else 1.0)
    assert pde == (2.0, 1.0)
    assert np.array_equal(calls[-1], _LINE[[1500]])
    # and either way round
    assert zero_modes._worse((np.float64(2.0), 3500), (np.float64(2.0), 1500)) == (2.0, 1500)
    assert zero_modes._worse((np.float64(2.0), 1500), (np.float64(2.0), 3500)) == (2.0, 1500)


@pytest.mark.parametrize("workers", [2, 3])
def test_split_walk_a_nan_in_a_child_share_wins(workers, monkeypatch):
    # a NaN at point 4200, in the last share, beats a larger residual at
    # point 100, in this process's share
    (pde,), calls = _line_residuals(
        monkeypatch, workers, lambda i: math.nan if i == 4200 else 5.0 if i == 100 else 1.0)
    assert math.isnan(pde[0]) and pde[1] == math.inf
    assert np.array_equal(calls[-1], _LINE[[4200]])


@pytest.mark.parametrize("bad", [(2200, 4700), (300, 4700), (4700,)])
@pytest.mark.parametrize("workers", [2, 3])
def test_split_walk_raises_the_first_failing_share(workers, bad, monkeypatch):
    # a SingularPoint at each bad point, in this process's share or a
    # child's; the one walk meets the first of them
    def a_at(i):
        if i in bad:
            raise SingularPoint(f"a evaluated at point {i}")
        return 1.0

    with pytest.raises(SingularPoint) as one:
        _line_residuals(monkeypatch, 1, a_at)
    with pytest.raises(SingularPoint) as split:
        _line_residuals(monkeypatch, workers, a_at)
    assert str(split.value) == str(one.value) == f"a evaluated at point {bad[0]}"


def test_children_are_killed_when_this_share_fails(monkeypatch):
    parent = os.getpid()

    def walk(share):
        if os.getpid() == parent:
            raise SingularPoint("this share")
        time.sleep(60)
        return list(share)

    start = time.monotonic()
    with pytest.raises(SingularPoint, match="this share"):
        zero_modes._in_shares(walk, range(0, 5000, 1000), 3)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_split_walk_reports_a_child_that_ends_without_a_result(monkeypatch):
    parent = os.getpid()

    def a_at(i):
        if i == 4700 and os.getpid() != parent:
            os._exit(3)
        return 1.0

    with pytest.raises(ChildProcessError, match="without a result"):
        _line_residuals(monkeypatch, 2, a_at)


@pytest.mark.parametrize("action", ["always", "default"])
def test_split_walk_issues_every_share_warning_in_share_order(action, monkeypatch):
    # numpy warns in chunk 0 (sqrt), chunk 2 (arccosh) and chunk 4 (log) of
    # five: this process's share and each child's, for two and three workers;
    # the half-step walk at the first NaN warns in sqrt again, which the
    # "default" action shows once per location
    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    zs = np.linspace(0.1, 1.0, 5000) + 0j

    def a(z):
        x = z.real
        return (np.sqrt(x - 0.2) + np.arccosh(0.95 + np.abs(x - 0.55))
                + np.log(0.9 - x)) * 0j

    issued = {}
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="warn"):
            warnings.simplefilter(action)
            zero_modes.pde_residuals(lambda z: (np.ones_like(z),), (True,), a,
                                     zero_modes._array_chunks(zs), 1e-3, 1.0)
        _assert_no_child_left()
        issued[n] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    expected = [f"invalid value encountered in {f}" for f in ("sqrt", "arccosh", "log", "sqrt")]
    assert [m for _, m, _, _ in issued[1]] == expected[:4 if action == "always" else 3]
    assert {(c, f) for c, _, f, _ in issued[1]} == {(RuntimeWarning, __file__)}
    assert issued[2] == issued[1] and issued[3] == issued[1]


# runs verify_modes in a process with no BLAS thread (OPENBLAS_NUM_THREADS=1)
# and two CPUs, under -W error::DeprecationWarning: the split must fork there,
# and must not fork while a Python thread runs or /proc/self/task lists two
# threads (os.fork raises if called then)
GUARD_CHILD = """
import json, os, threading
from zeromodes import GridSpec, PotentialField, build_basis, verify_modes, zero_modes
from zeromodes import FieldSpec, Hole, RadialBump, disc_with_holes, pi_flux

threads_at_start = len(os.listdir("/proc/self/task"))
os.sched_getaffinity = lambda pid: {0, 1}
zero_modes._CHUNK_POINTS = 1000
dom = disc_with_holes(3.0, [Hole(1.2 + 0.4j, 0.35)])
fld = FieldSpec(bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux("5/2"))],
                hole_fluxes=[pi_flux("1/2")])
pot = PotentialField(fld, dom)
modes = build_basis(dom, fld, pot).modes()
grid = GridSpec(radial=16, angular=64, bulk_divisor=8)

def run():
    return verify_modes(modes, grid)

count = zero_modes._worker_count
zero_modes._worker_count = lambda chunks: 1
expected = run()
zero_modes._worker_count = count
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
forked = run() == expected and len(forks)

def refuse():
    raise AssertionError("forked beside another thread")

os.fork = refuse
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
try:
    with_thread = run() == expected
finally:
    stop.set()
    thread.join(timeout=60)
listdir = os.listdir
os.listdir = lambda path=".": ["1", "2"] if path == "/proc/self/task" else listdir(path)
with_two_tasks = run() == expected
print(json.dumps([threads_at_start, forked, with_thread, with_two_tasks, thread.is_alive()]))
"""


def _child_env():
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=str(Path(zero_modes.__file__).resolve().parents[1]))


def test_split_walk_forks_only_from_a_single_threaded_process():
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                           GUARD_CHILD], env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [1, 1, True, True, False]


# the seed-7 verify_disc_smooth problem
SEED7_DISC = {
    "domain": {"kind": "disc", "radius_out": 3.0,
               "holes": [{"center": [1.827, 0.732], "radius": 0.35},
                         {"center": [-1.41, -1.869], "radius": 0.35}]},
    "field": {"bumps": [{"center": [0.489, -1.008], "support_radius": 0.6,
                         "flux_pi": "25/4", "profile": "smooth"},
                        {"center": [-1.294, 1.129], "support_radius": 0.6,
                         "flux_pi": "5", "profile": "smooth"}],
              "hole_fluxes_pi": ["1", "-7/4"]},
}
# a CLI process on one CPU ("1") or on every CPU it may use ("all"); it
# reports on stderr how often it forked and its peak RSS in kB, the larger of
# its own and that of the workers it reaped
CLI_CHILD = """
import os, resource, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from zeromodes.cli import main
code = main(sys.argv[2:])
rss = max(resource.getrusage(who).ru_maxrss
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(len(forks), rss, file=sys.stderr)
sys.exit(code)
"""


def test_split_verify_peak_rss_and_output_match_one_cpu(tmp_path):
    # forked workers share the parent's pages until they write them, so the
    # split holds about the memory of one walk
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(SEED7_DISC), encoding="utf-8")
    runs = {}
    for cpus in ("1", "all"):
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, cpus, "verify", "--config",
                               str(path)], env=_child_env(), capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        forks, rss = map(int, proc.stderr.split()[-2:])
        runs[cpus] = proc.stdout, forks, rss
    assert runs["all"][0] == runs["1"][0]
    assert runs["1"][1] == 0
    if len(os.sched_getaffinity(0)) > 1:
        assert runs["all"][1] > 0
    assert abs(runs["all"][2] - runs["1"][2]) <= 0.05 * runs["1"][2]


# ---------------------------------------------------------------------------
# continuation into the holes
# ---------------------------------------------------------------------------


def test_analytic_extension_rejects_pole_at_hole_centre():
    # a coefficient at degree -1 puts a genuine pole of g at the hole centre:
    # the spinor still solves the equation and meets the outer condition, but
    # g does not continue into the hole, so its trace there leaks (measured
    # 0.27 to 0.61 over these fluxes)
    dom = disc_with_holes(3.0, [Hole(0.0, 0.4)])
    cases = [(3, "0")] + [(5, hole) for hole in ("1/2", "-1/2", "0", "3/4", "-3/4")]
    for bump_pi, hole_pi in cases:
        fld = FieldSpec(bumps=[RadialBump(1.5, 0.5, pi_flux(bump_pi))],
                        hole_fluxes=[pi_flux(hole_pi)])
        pot = PotentialField(fld, dom)
        good = build_basis(dom, fld, pot).modes()[0]
        poisoned = ZeroMode(Chirality.UP, {-1: 1.0 + 0.0j}, pot)
        good_report, report = verify_modes([good, poisoned])
        assert good_report.passed, (bump_pi, hole_pi)
        assert report.pde_residual < 1e-6, (bump_pi, hole_pi)
        assert report.trace_leakage["outer"] < 1e-6, (bump_pi, hole_pi)
        assert report.trace_leakage["hole0"] > 1e-2, (bump_pi, hole_pi)
        assert not report.passed


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
    assert count_zero_modes(flat_problem(dom, fld_d)).count == 1
    assert count_zero_modes(flat_problem(dom, fld_a)).count == 2

    pot_d = PotentialField(fld_d, dom)
    pot_a = PotentialField(fld_a, dom)
    alt_basis = build_basis(dom, fld_a, pot_a)
    assert alt_basis.degrees == [0, 1]
    assert all(r.passed for r in verify_modes(alt_basis.modes()))

    threshold_mode = ZeroMode(Chirality.UP, {1: 1.0 + 0.0j}, pot_d)
    report = verify_mode(threshold_mode, dom, fld_d, pot_d)
    assert report.trace_leakage["outer"] > 1e-2
    assert not report.passed


def test_down_mode_verifies():
    dom = disc_with_holes(3.0, [Hole(-1.3, 0.35)])
    fld = FieldSpec(bumps=[RadialBump(0.9, 0.6, pi_flux("-5/2"))],
                    hole_fluxes=[pi_flux("-1/2")])
    pot = PotentialField(fld, dom)
    counted = count_zero_modes(flat_problem(dom, fld))
    assert (counted.count, counted.chirality) == (2, Chirality.DOWN)
    modes = build_basis(dom, fld, pot).modes()
    for mode, report in zip(modes, verify_modes(modes)):
        assert report.passed, report


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def test_public_names_are_explicit_and_hold_no_submodule():
    import inspect
    import types

    import zeromodes

    assert len(set(zeromodes.__all__)) == len(zeromodes.__all__)
    for name in zeromodes.__all__:
        assert not isinstance(getattr(zeromodes, name), types.ModuleType), name
    for gone in ("eta_of_scaled", "rho_term", "zero_modes", "potential"):
        assert gone not in zeromodes.__all__
    assert not hasattr(PotentialField, "h_asymptotics")
    # hole-circle leakage checks continuation into the holes; no Laurent probe
    for gone in ("analytic_extension_check", "laurent_coefficients"):
        assert gone not in zeromodes.__all__ and not hasattr(zeromodes, gone)
        assert not hasattr(zero_modes, gone)
    assert not hasattr(ZeroMode, "eval_g")
    # a sphere's rules live in projected_disc and sphere_to_disc, and the
    # residual oracle is reduced to worst points in one walk
    from zeromodes import conformal

    assert "SphereReduction" not in zeromodes.__all__
    assert not hasattr(zeromodes, "SphereReduction") and not hasattr(conformal, "SphereReduction")
    for gone in ("dirac_residual", "_require_sphere_canonical", "worst_points",
                 "worst_residual", "Worst"):
        assert not hasattr(zeromodes, gone) and not hasattr(zero_modes, gone)
    # a boundary trace is one chirality's DFT array, and Chirality is defined once
    from zeromodes import aps_boundary, eta_index

    for gone in ("Spin", "TraceFourier", "check_norm", "_weighted_sum", "hcheck_weight"):
        assert gone not in zeromodes.__all__
        assert not hasattr(zeromodes, gone) and not hasattr(aps_boundary, gone)
    assert zeromodes.Chirality is zero_modes.Chirality is eta_index.Chirality
    assert zeromodes.Chirality.__module__ == aps_boundary.__name__
    # the threshold policy is three primitives and nothing built on them
    from zeromodes import numutil

    defined = {name for name, obj in vars(numutil).items()
               if inspect.isfunction(obj) and obj.__module__ == numutil.__name__}
    assert defined == {"threshold_sum", "integer_at", "floor_strict"}
