"""Eta invariants (closed form vs series continuation) and the index assembly."""

import math
from fractions import Fraction

import mpmath
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
    eta_richardson_to_zero,
    eta_series,
    flat_problem,
    index_formula,
    index_vs_count,
    pi_flux,
    sphere_with_holes,
)
from zeromodes.eta_index import DEFAULT_N_TERMS, MAX_ETA_TERMS


def slow_eta_partial_sum(c: float, s: float, n_terms: int, block: int = 10 ** 6) -> float:
    """Brute-force pairing sum -c^-s + sum (n-c)^-s - (n+c)^-s, no acceleration,
    summed ``block`` terms at a time so its arrays stay a few MB."""
    total = -(c ** -s)
    for lo in range(1, n_terms + 1, block):
        n = np.arange(lo, min(lo + block, n_terms + 1), dtype=float)
        total += float(np.sum((n - c) ** -s - (n + c) ** -s))
    return total


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


ORACLE_C = [Fraction(1, 8), Fraction(3, 10), Fraction(1, 3), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10)]
ORACLE_S = [-0.9, -0.5, 0.025, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]


def hurwitz_eta(c: Fraction, s: float) -> float:
    """zeta(s, 1 - c) - zeta(s, c) (DLMF 25.11), and its limit psi(c) - psi(1 - c) at s = 1."""
    with mpmath.workdps(30):
        a = mpmath.mpf(c.numerator) / c.denominator
        if s == 1.0:
            return float(mpmath.digamma(a) - mpmath.digamma(1 - a))
        return float(mpmath.zeta(s, 1 - a) - mpmath.zeta(s, a))


@pytest.mark.parametrize("c", ORACLE_C, ids=str)
def test_eta_series_within_its_bound_of_hurwitz(c):
    # at the fewest terms the tail's B_10 term still exceeds the rounding, so
    # the bound is tested there too; the float c carries its rounding
    for s in ORACLE_S:
        ref = hurwitz_eta(c, s)
        for n_terms in (8, DEFAULT_N_TERMS):
            for given in (c, float(c)):
                r = eta_series(given, s, n_terms)
                assert abs(r.value - ref) <= r.tail_bound, (given, s, n_terms, r.value - ref)
                assert n_terms != DEFAULT_N_TERMS or r.tail_bound <= 1e-12, (given, s)


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


def test_eta_rejects_s_values_it_cannot_continue():
    with pytest.raises(ValueError, match="s > -1"):  # NaN is not greater than -1
        eta_series(0.25, math.nan, 100)
    for s_values in ([], [math.nan], [math.inf, math.inf], [-0.2, -0.1], [0.0],
                     [0.2, 0.2], [0.2, -0.2], [0.2, 0.1, 0.04]):
        with pytest.raises(ValueError):
            eta_richardson_to_zero(Fraction(1, 3), s_values, 100)
    # halving is exact in binary floating point, so the defaults pass
    eta = eta_richardson_to_zero(Fraction(1, 3), [0.2, 0.1, 0.05, 0.025])
    assert eta == pytest.approx(eta_closed(Fraction(1, 3)), abs=1e-3)
    assert eta_richardson_to_zero(Fraction(1, 3), [0.2], 100) \
        == eta_series(Fraction(1, 3), 0.2, 100).value


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


# ---------------------------------------------------------------------------
# index assembly
# ---------------------------------------------------------------------------

DISC = disc_with_holes(5.0)


def bulk_only(phi_pi, q=0):
    return FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(phi_pi))],
                     hole_fluxes=[], q_shift=q)


def test_index_examples():
    res = index_formula(flat_problem(DISC, bulk_only(3)))
    assert res.index == 1
    assert res.raw == pytest.approx(1.0, abs=1e-12)
    assert res.kernel_dims["outer"] == 1  # 3/2 - 1/2 = 1 is an integer

    assert index_formula(flat_problem(DISC, bulk_only(0))).index == 0

    dom = disc_with_holes(6.0, [Hole(3.0, 0.5), Hole(-3.0, 0.5)])
    fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux(6))],
                    hole_fluxes=[pi_flux(-2), pi_flux(-2)], q_shift=Fraction(1))
    res = index_formula(flat_problem(dom, fld))
    assert res.index == 2  # floor_strict(1 + 1 + 1/2)
    assert res.raw == pytest.approx(res.index, abs=1e-12)


def test_index_eta_is_eta_closed():
    # c = 5/6 - 1/2 = 1/3 on the outer circle: the index table's eta is the
    # eta table's, to the last digit
    res = index_formula(flat_problem(DISC, bulk_only("5/3")))
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
            res = index_formula(flat_problem(dom, fld))
            assert res.raw == pytest.approx(res.index, abs=1e-9), (k, q)


def test_index_vs_count_normalises_each_hole_flux_once(monkeypatch):
    from zeromodes import field

    calls = []
    normalize = field.normalize_flux
    monkeypatch.setattr(field, "normalize_flux",
                        lambda *args: calls.append(args) or normalize(*args))
    dom = disc_with_holes(6.0, [Hole(3.0, 0.4), Hole(-2.5j, 0.4)])
    fld = FieldSpec(bumps=[RadialBump(0.0, 0.5, pi_flux("5/2"))],
                    hole_fluxes=[pi_flux("9/4"), pi_flux("-5/2")],
                    q_shift=Fraction(1, 4))
    rep = index_vs_count(flat_problem(dom, fld))
    assert rep.consistent
    assert [args[0] for args in calls] == fld.hole_fluxes


def test_index_vs_count_examples():
    rep = index_vs_count(flat_problem(DISC, bulk_only(3)))
    assert (rep.index, rep.signed_count, rep.consistent) == (1, 1, True)

    rep = index_vs_count(flat_problem(DISC, bulk_only(-3)))
    assert rep.index == -2
    assert rep.count == 2 and rep.chirality is Chirality.DOWN
    assert rep.consistent

    rep = index_vs_count(flat_problem(DISC, bulk_only("1/2")))
    assert (rep.index, rep.signed_count) == (0, 0)
    assert rep.consistent


def test_index_vs_count_on_sphere():
    dom = sphere_with_holes([Hole(1.0, 0.3), Hole(0.0, 3.0)], omitted_hole=1)
    fld = FieldSpec(bumps=[RadialBump(-0.8, 0.4, pi_flux(3))],
                    hole_fluxes=[pi_flux("1/2"), pi_flux("-7/2")])
    rep = index_vs_count(flat_problem(dom, fld))
    assert rep.consistent
    assert rep.index == 2  # semi-total 3.5 pi: floor_strict(1.75 + 0.5) = 2
