"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values are produced by oracles local to this module (exact rational
staircase arithmetic, window predicates, brute sums) so they stay independent
of the library paths they check.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from zeromodes import (
    BMConfig,
    Chirality,
    FieldSpec,
    GridSpec,
    Hole,
    PotentialField,
    Profile,
    RadialBump,
    ZeroMode,
    bm_flux_sweep,
    bm_verify,
    bm_zero_mode,
    build_basis,
    conformal_factor,
    conformal_ratio,
    count_zero_modes,
    disc_with_holes,
    eta_closed,
    eta_richardson_to_zero,
    index_formula,
    index_vs_count,
    mobius_for_point,
    normalize_flux,
    patch_spinor,
    pi_flux,
    plane_with_holes,
    semi_total_flux,
    sphere_to_disc,
    sphere_with_holes,
    verify_mode,
)

QS = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")


def strict_floor(y: Fraction) -> int:
    """Independent strict floor: biggest integer strictly below y."""
    k = math.floor(y)
    return k - 1 if k == y else k


def bulk_field(mult: Fraction, q: Fraction = Fraction(0)) -> FieldSpec:
    return FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(mult))],
                     hole_fluxes=[], q_shift=q)


# ---------------------------------------------------------------------------
# 1. counting staircases
# ---------------------------------------------------------------------------


def test_criterion_1_counting_staircases():
    plane = plane_with_holes([])
    disc = disc_with_holes(5.0)
    ok = True
    for k in range(-48, 49):
        mult = Fraction(k, 8)
        x = mult / 2  # flux / 2 pi
        expected_plane = 0 if x == 0 else max(0, strict_floor(abs(x)))
        got = count_zero_modes(plane, bulk_field(mult))
        ok &= got.count == expected_plane
        for q in QS:
            expected_disc = abs(strict_floor(x + q + Fraction(1, 2)))
            got_d = count_zero_modes(disc, bulk_field(mult, q))
            ok &= got_d.count == expected_disc
    _report(1, "plane and disc counting staircases, exact over k pi/8", ok)
    assert ok


# ---------------------------------------------------------------------------
# 2. extra-mode window
# ---------------------------------------------------------------------------


def in_extra_window(x: Fraction) -> bool:
    """x = flux/2pi decomposes as k + eps with eps in (1/2,1], k>=0, or
    eps in [-1,-1/2], k<=0."""
    for k in range(-10, 11):
        eps = x - k
        if k >= 0 and Fraction(1, 2) < eps <= 1:
            return True
        if k <= 0 and -1 <= eps <= Fraction(-1, 2):
            return True
    return False


def test_criterion_2_extra_mode_window():
    plane = plane_with_holes([])
    disc = disc_with_holes(5.0)
    ok = True
    for k in range(-48, 49):
        mult = Fraction(k, 8)
        x = mult / 2
        plane_count = count_zero_modes(plane, bulk_field(mult)).count
        disc_count = count_zero_modes(disc, bulk_field(mult)).count
        expected_gap = 1 if in_extra_window(x) else 0
        ok &= (disc_count - plane_count) == expected_gap
    _report(2, "disc equals plane plus one exactly on the window", ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. randomized mode verification
# ---------------------------------------------------------------------------


def _random_admissible_config(rng, want_disc: bool):
    """Random disc/plane with <=3 holes, <=2 smooth bumps, |flux| <= 6 pi."""
    from zeromodes import validate_domain, validate_field

    while True:
        n_holes = int(rng.integers(1, 4))
        n_bumps = int(rng.integers(1, 3))
        radius_out = rng.uniform(2.4, 3.0)
        centers, radii = [], []
        for _ in range(n_holes):
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.8, 1.6)
            centers.append(r * np.exp(1j * ang))
            radii.append(rng.uniform(0.3, 0.38))
        holes = [Hole(complex(c), float(rr)) for c, rr in zip(centers, radii)]
        dom = disc_with_holes(radius_out, holes) if want_disc \
            else plane_with_holes(holes)
        if not validate_domain(dom).ok:
            continue
        bumps = []
        for _ in range(n_bumps):
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.0, 1.8)
            c = complex(r * np.exp(1j * ang))
            rho = rng.uniform(0.35, 0.5)
            mult = Fraction(int(rng.integers(-10, 11)), 2)
            bumps.append(RadialBump(c, rho, pi_flux(mult)))
        hole_fluxes = [pi_flux(Fraction(int(rng.integers(-3, 4)), 4))
                       for _ in range(n_holes)]
        fld = FieldSpec(bumps=bumps, hole_fluxes=hole_fluxes)
        if validate_field(fld, dom):
            continue
        total = sum(b.flux.multiplier for b in bumps) + sum(
            normalize_flux(p).value.multiplier for p in hole_fluxes
        )
        if abs(total) > 6 or total == 0:
            continue
        return dom, fld


def test_criterion_3_randomized_mode_verification():
    rng = np.random.default_rng(20260808)
    grid = GridSpec()
    ok = True
    checked_modes = 0
    for i in range(20):
        dom, fld = _random_admissible_config(rng, want_disc=(i % 2 == 0))
        pot = PotentialField(fld, dom)
        counted = count_zero_modes(dom, fld)
        if counted.count:
            basis = build_basis(dom, fld, pot)
            for mode in basis.modes():
                report = verify_mode(mode, dom, fld, pot, grid)
                ok &= report.pde_residual < 1e-6
                ok &= all(v < 1e-6 for v in report.trace_leakage.values())
                ok &= report.passed
                checked_modes += 1
            chirality = counted.chirality
        else:
            x = float(pot.total_flux) / (2 * math.pi)
            chirality = Chirality.UP if x > 0 else Chirality.DOWN
        candidate = ZeroMode(chirality, {counted.count: 1.0 + 0.0j}, pot, dom)
        report = verify_mode(candidate, dom, fld, pot, grid)
        leak_fail = any(v > 1e-2 for v in report.trace_leakage.values())
        exp_fail = report.integrability_exponent_ok is False
        ok &= (leak_fail or exp_fail)
        ok &= not report.passed
    ok &= checked_modes >= 10
    _report(3, f"20 random configs, {checked_modes} modes verified, "
               "next candidates rejected", ok)
    assert ok


# ---------------------------------------------------------------------------
# 4. gauge invariance
# ---------------------------------------------------------------------------


def test_criterion_4_gauge_invariance():
    dom = disc_with_holes(3.0, [Hole(1.2, 0.32), Hole(-1.0 + 0.9j, 0.32)])
    base_fluxes = [Fraction(1, 2), Fraction(-3, 4)]
    base = FieldSpec(bumps=[RadialBump(0.3 - 1.1j, 0.45, pi_flux(2))],
                     hole_fluxes=[pi_flux(m) for m in base_fluxes])
    pot = PotentialField(base, dom)
    counted = count_zero_modes(dom, base)
    modes = build_basis(dom, base, pot).modes()
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2.0, 2.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    pts = pts[(np.abs(pts - 1.2) > 0.33) & (np.abs(pts - (-1.0 + 0.9j)) > 0.33)]
    ok = True
    for j in range(2):
        for shift in (2, -2):
            fluxes = list(base_fluxes)
            fluxes[j] += shift
            shifted = FieldSpec(bumps=base.bumps,
                                hole_fluxes=[pi_flux(m) for m in fluxes])
            got = count_zero_modes(dom, shifted)
            ok &= (got.count, got.chirality) == (counted.count, counted.chirality)
            pot_s = PotentialField(shifted, dom)
            for mode, mode_s in zip(modes, build_basis(dom, shifted, pot_s).modes()):
                diff = np.max(np.abs(np.abs(mode.eval(pts)) - np.abs(mode_s.eval(pts))))
                ok &= diff < 1e-8
    _report(4, "counts and |u| invariant under 2 pi hole-flux shifts", ok)
    assert ok


# ---------------------------------------------------------------------------
# 5. eta invariant
# ---------------------------------------------------------------------------


def test_criterion_5_eta_invariant():
    ok = True
    for c in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
              Fraction(3, 4)):
        closed = eta_closed(c)
        extrapolated = eta_richardson_to_zero(c)
        ok &= abs(extrapolated - closed) < 1e-3
        ok &= eta_closed(c) + eta_closed(-c) == 0.0
    _report(5, "series continuation meets the closed form, antisymmetry exact", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. index consistency
# ---------------------------------------------------------------------------


def test_criterion_6_index_consistency():
    dom = disc_with_holes(6.0, [Hole(3.0, 0.4), Hole(-2.5j, 0.4)])
    hole_fluxes = [Fraction(3, 4), Fraction(-1, 2)]
    ok = True
    for k in range(-4, 5):  # Phi = k pi: includes exact threshold cases
        for q in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(1)):
            normalized = sum(normalize_flux(pi_flux(m), q).value.multiplier
                             for m in hole_fluxes)
            bulk = Fraction(k) - normalized
            fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(bulk))],
                            hole_fluxes=[pi_flux(m) for m in hole_fluxes],
                            q_shift=q)
            res = index_formula(dom, fld)
            expected = strict_floor(Fraction(k, 2) + q + Fraction(1, 2))
            ok &= res.index == expected
            ok &= abs(res.raw - expected) < 1e-9
            rep = index_vs_count(dom, fld)
            ok &= rep.consistent and rep.index == expected
    _report(6, "raw assembly equals the strict floor and the signed count "
               "on the 9x5 grid", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. sphere reduction
# ---------------------------------------------------------------------------


def test_criterion_7_sphere_reduction():
    rng = np.random.default_rng(31)
    ok = True
    residual_checked = 0
    for i in range(10):
        n_inner = int(rng.integers(1, 3))
        holes, fluxes = [], []
        for j in range(n_inner):
            ang = 2 * math.pi * (j + rng.uniform(0.1, 0.6)) / n_inner
            holes.append(Hole(complex(rng.uniform(0.9, 1.6) * np.exp(1j * ang)),
                              rng.uniform(0.3, 0.4)))
            fluxes.append(Fraction(int(rng.integers(-3, 4)), 4))
        bulk = Fraction(int(rng.integers(-8, 9)), 2)
        outer_flux = -(bulk + sum(fluxes))
        holes.append(Hole(0.0, 4.0))
        fluxes.append(outer_flux)
        dom = sphere_with_holes(holes, omitted_hole=n_inner)
        fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(bulk))],
                        hole_fluxes=[pi_flux(m) for m in fluxes])

        semi = semi_total_flux(fld, n_inner).multiplier / 2
        expected = abs(strict_floor(semi + Fraction(1, 2)))
        counted = count_zero_modes(dom, fld)
        ok &= counted.count == expected

        red = sphere_to_disc(dom, fld)
        ok &= count_zero_modes(red.disc_domain, red.disc_field).count == expected

        # designation independence is pure flux arithmetic
        counts = set()
        for om in range(len(fluxes)):
            s = semi_total_flux(fld, om).multiplier / 2
            counts.add(abs(strict_floor(s + Fraction(1, 2))))
        ok &= counts == {expected}

        if expected and residual_checked < 4:
            pot = PotentialField(fld, dom)
            mode = build_basis(dom, fld, pot).modes()[0]
            ok &= verify_mode(mode, dom, fld, pot).pde_residual < 1e-6
            residual_checked += 1
    ok &= residual_checked >= 2
    _report(7, "sphere counts via the disc reduction, designation-free, "
               "dressed residuals under 1e-6", ok)
    assert ok


# ---------------------------------------------------------------------------
# 8. Moebius identities
# ---------------------------------------------------------------------------


def test_criterion_8_mobius_identities():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(1000):
        t1, p1 = rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi)
        t2, p2 = rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi)
        m1, m2 = mobius_for_point(t1, p1), mobius_for_point(t2, p2)
        comp = m2.compose(m1)
        ok &= abs(m1.det - 1.0) < 1e-10
        ok &= comp.rotation_relations_error() < 1e-10
        z = complex(rng.normal(scale=1.5), rng.normal(scale=1.5))
        if abs(comp.c * z + comp.d) < 1e-3 or abs(m1.c * z + m1.d) < 1e-3:
            continue
        direct = conformal_factor(z) / conformal_factor(comp.apply(z))
        ok &= abs(direct - conformal_ratio(z, comp)) < 1e-10
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        left = patch_spinor(u, z, comp)
        right = patch_spinor(patch_spinor(u, z, m1), m1.apply(z), m2)
        ok &= float(np.max(np.abs(left - right))) < 1e-10
    _report(8, "determinant, composition relations, W-ratio and cocycle at 1e-10", ok)
    assert ok


# ---------------------------------------------------------------------------
# 9. Berry-Mondragon
# ---------------------------------------------------------------------------


def test_criterion_9_berry_mondragon():
    ok = True
    values = [pi_flux(Fraction(k, 4)) for k in range(0, 25)]
    for s in (1.0, 2.0):
        cfg = BMConfig(1.0, 2.0, math.pi, s, -s)
        rows = bm_flux_sweep(cfg, values)
        hits = sorted(r["phi"] / math.pi for r in rows if r["has_mode"])
        ok &= hits == pytest.approx([1.0, 3.0, 5.0])
    same = BMConfig(1.0, 2.0, math.pi, 1.0, 1.0)
    ok &= not any(r["has_mode"] for r in bm_flux_sweep(same, values))

    cfg = BMConfig(1.0, 2.0, math.pi, 1.0, -1.0)
    mode = bm_zero_mode(cfg)
    report = bm_verify(cfg, mode, tol_residual=1e-6, tol_boundary=1e-8)
    ok &= report.passed
    _report(9, "sweep hits odd multiples of pi only; the pi mode verifies "
               "at 1e-6/1e-8", ok)
    assert ok
