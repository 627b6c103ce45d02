"""Eta invariants (closed form vs series continuation) and the index assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zeromodes import (
    Chirality,
    DomainError,
    FieldSpec,
    Hole,
    RadialBump,
    count_zero_modes,
    disc_with_holes,
    eta_closed,
    eta_of_scaled,
    eta_richardson_to_zero,
    eta_series,
    index_formula,
    index_vs_count,
    pi_flux,
    rho_term,
    sphere_with_holes,
)
from zeromodes.eta_index import MAX_ETA_TERMS


def slow_eta_partial_sum(c: float, s: float, n_terms: int) -> float:
    """Brute-force pairing sum -c^-s + sum (n-c)^-s - (n+c)^-s, no acceleration."""
    n = np.arange(1, n_terms + 1, dtype=float)
    return -(c ** -s) + float(np.sum((n - c) ** -s - (n + c) ** -s))


def test_eta_closed_examples():
    assert eta_closed(0.25) == -0.5
    assert eta_closed(3.0) == 0.0
    assert eta_closed(-0.25) == 0.5  # <-1/4> = 3/4


def test_eta_closed_antisymmetry_exact():
    for c in (0.125, 0.25, Fraction(1, 3), 0.5, 0.75):
        assert eta_closed(c) + eta_closed(-c) == 0.0


@given(st.fractions(min_value=-8, max_value=8, max_denominator=64),
       st.integers(-3, 3))
def test_eta_closed_shift_invariance(c, k):
    assert eta_closed(c + k) == eta_closed(c)


@given(st.fractions(min_value=-8, max_value=8, max_denominator=64))
def test_eta_closed_antisymmetry_property(c):
    if c.denominator == 1:
        assert eta_closed(c) == 0.0
    else:
        assert eta_closed(c) + eta_closed(-c) == pytest.approx(0.0, abs=1e-15)


def test_eta_series_against_slow_sum():
    # plain 1e6-term partial sum still carries a ~2c/N^s = 5e-4 truncation
    # tail at s = 1/2; the accelerated value sits inside that bound
    accel = eta_series(0.25, 0.5, 10_000)
    assert accel.tail_bound < 1e-6
    slow6 = slow_eta_partial_sum(0.25, 0.5, 10 ** 6)
    assert abs(accel.value - slow6) < 1e-3
    assert abs(accel.value - slow6) == pytest.approx(2 * 0.25 * 1e-3, rel=0.05)
    # pushing the brute sum to 2.5e7 terms confirms agreement at 1e-4
    slow7 = slow_eta_partial_sum(0.25, 0.5, 25_000_000)
    assert abs(accel.value - slow7) < 1e-4


def test_eta_series_richardson_reaches_closed_form():
    assert eta_richardson_to_zero(0.25) == pytest.approx(-0.5, abs=1e-3)


def test_eta_series_symmetric_point():
    # c = 1/2 gives the symmetric spectrum {..,-3/2,-1/2,1/2,3/2,..}: the
    # -c^-s head cancels against the telescoped pair sum, eta_s = 0 for all s
    for s in (0.3, 0.7, 1.0):
        r = eta_series(0.5, s, 5000)
        assert abs(r.value) <= 2 * r.tail_bound
        assert r.value == pytest.approx(0.0, abs=1e-5)
    assert eta_closed(0.5) == 0.0


def test_eta_series_domain_errors():
    with pytest.raises(DomainError):
        eta_series(0.25, -1.5, 100)
    with pytest.raises(ValueError):
        eta_series(2.0, 0.5, 100)
    with pytest.raises(ValueError):
        eta_series(0.25, 0.5, 4)
    with pytest.raises(ValueError, match="terms"):  # rejected before any allocation
        eta_series(0.25, 0.5, MAX_ETA_TERMS + 1)


def test_rho_decay_rate():
    # log|rho| over n in [1e3, 1e4] has slope -(s+2) within 2 percent
    for s, c in ((0.3, 0.25), (0.5, 0.4), (1.2, 0.125)):
        n = np.geomspace(1e3, 1e4, 25)
        rho = np.abs(rho_term(s, c, n))
        slope = np.polyfit(np.log(n), np.log(rho), 1)[0]
        assert slope == pytest.approx(-(s + 2.0), rel=0.02)
        # and the coefficient is s(s+1)c
        coeff = rho[-1] * n[-1] ** (s + 2.0)
        assert coeff == pytest.approx(s * (s + 1) * c, rel=0.02)


def test_eta_scaling_relation():
    # eta_s of {scale*(n-c)} equals sign(scale)|scale|^-s eta_s of {n-c}
    c, s = 0.3, 0.3
    n = np.concatenate([np.arange(-200_000, 0), np.arange(0, 200_001)])
    lam = n - c

    def brute(eigs):
        return float(np.sum(np.sign(eigs) * np.abs(eigs) ** -s))

    base = brute(lam)
    for scale in (2.0, 0.5, -3.0):
        got = brute(scale * lam)
        expected = math.copysign(1.0, scale) * abs(scale) ** -s * base
        assert got == pytest.approx(expected, rel=1e-9)
    assert eta_of_scaled(-2.0, 0.25) == -eta_closed(0.25)
    assert eta_of_scaled(0.5, 0.25) == eta_closed(0.25)


# ---------------------------------------------------------------------------
# index assembly
# ---------------------------------------------------------------------------

DISC = disc_with_holes(5.0)


def bulk_only(phi_pi, q=0):
    return FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(phi_pi))],
                     hole_fluxes=[], q_shift=q)


def test_index_examples():
    res = index_formula(DISC, bulk_only(3))
    assert res.index == 1
    assert res.raw == pytest.approx(1.0, abs=1e-12)
    assert res.kernel_dims["outer"] == 1  # 3/2 - 1/2 = 1 is an integer

    assert index_formula(DISC, bulk_only(0)).index == 0

    dom = disc_with_holes(6.0, [Hole(3.0, 0.5), Hole(-3.0, 0.5)])
    fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(6))],
                    hole_fluxes=[pi_flux(-2), pi_flux(-2)], q_shift=Fraction(1))
    res = index_formula(dom, fld)
    assert res.index == 2  # floor_strict(1 + 1 + 1/2)
    assert res.raw == pytest.approx(res.index, abs=1e-12)


def test_index_eta_is_eta_closed():
    # c = 5/6 - 1/2 = 1/3 on the outer circle: the index table's eta is the
    # eta table's, to the last digit
    res = index_formula(DISC, bulk_only("5/3"))
    assert res.boundary_eta["outer"] == eta_closed(Fraction(1, 3))


def test_index_raw_equals_simplified_over_grid():
    from zeromodes import normalize_flux

    dom = disc_with_holes(6.0, [Hole(3.0, 0.4), Hole(-2.5j, 0.4)])
    for k in range(-4, 5):
        for q in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(1)):
            hole_fluxes = [pi_flux("3/4"), pi_flux("-1/2")]
            normalized = sum(
                normalize_flux(p, q).value.multiplier for p in hole_fluxes
            )
            bulk = Fraction(k) - normalized
            fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(bulk))],
                            hole_fluxes=hole_fluxes, q_shift=q)
            res = index_formula(dom, fld)
            assert res.raw == pytest.approx(res.index, abs=1e-9), (k, q)


def test_index_vs_count_examples():
    rep = index_vs_count(DISC, bulk_only(3))
    assert (rep.index, rep.signed_count, rep.consistent) == (1, 1, True)

    rep = index_vs_count(DISC, bulk_only(-3))
    assert rep.index == -2
    assert rep.count == 2 and rep.chirality is Chirality.DOWN
    assert rep.consistent

    rep = index_vs_count(DISC, bulk_only("1/2"))
    assert (rep.index, rep.signed_count) == (0, 0)
    assert rep.consistent


def test_index_vs_count_on_sphere():
    dom = sphere_with_holes([Hole(1.0, 0.3), Hole(0.0, 3.0)], omitted_hole=1)
    fld = FieldSpec(bumps=[RadialBump(-0.8, 0.4, pi_flux(3))],
                    hole_fluxes=[pi_flux("1/2"), pi_flux("-7/2")])
    rep = index_vs_count(dom, fld)
    assert rep.consistent
    assert rep.index == 2  # semi-total 3.5 pi: floor_strict(1.75 + 0.5) = 2
