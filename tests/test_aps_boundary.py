"""Boundary spectra, admissible index sets, trace norms and leakage."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zeromodes import (
    OUTER,
    BoundarySpectrum,
    Chirality,
    FieldSpec,
    Hole,
    KernelChoice,
    PotentialField,
    leakage,
    pi_flux,
    plane_with_holes,
    trace_from_samples,
)
from zeromodes.aps_boundary import hcheck_weight

TWO_PI = 2 * math.pi
UP, DOWN = Chirality.UP, Chirality.DOWN


def test_eigenvalue_examples():
    assert BoundarySpectrum(0, 1.0, 0.0).eigenvalue(UP, 0) == -0.5
    assert BoundarySpectrum(0, 2.0, math.pi).eigenvalue(UP, 0) == 0.0
    assert BoundarySpectrum(OUTER, 1.0, 0.0).eigenvalue(UP, 0) == 0.5


def test_spin_families_anticommute_on_holes():
    spec = BoundarySpectrum(0, 1.7, 0.83, q=Fraction(1, 2))
    for ell in range(-6, 7):
        assert spec.eigenvalue(UP, ell) == pytest.approx(
            -spec.eigenvalue(DOWN, ell + 1)
        )


def test_allowed_examples():
    spec = BoundarySpectrum(0, 1.0, 0.0)
    assert [spec.allowed(UP, ell) for ell in (-2, -1, 0, 1, 5)] == \
        [False, False, True, True, True]

    spec_pi = BoundarySpectrum(0, 1.0, pi_flux(1))
    assert [spec_pi.allowed(DOWN, ell) for ell in (-1, 0, 1, 2)] == \
        [True, True, True, False]
    # l = 1 is the kernel vector: eigenvalue zero, kept by the default choice
    assert spec_pi.eigenvalue(DOWN, 1) == 0.0

    spec_out = BoundarySpectrum(OUTER, 1.0, pi_flux(4))
    assert [spec_out.allowed(UP, ell) for ell in (0, 1, 2)] == [True, True, False]


def test_alternate_kernel_swaps_the_zero_vector():
    spec = BoundarySpectrum(0, 1.0, pi_flux(1), kernel_choice=KernelChoice.ALTERNATE)
    # down loses l = 1, up gains l = 0 (both eigenvalue zero)
    assert not spec.allowed(DOWN, 1)
    assert spec.allowed(UP, 0)
    default = BoundarySpectrum(0, 1.0, pi_flux(1))
    assert default.allowed(DOWN, 1)
    assert not default.allowed(UP, 0)


def test_partition_per_spin():
    for flux in (0.0, 0.77, float(pi_flux(1)), -2.3, float(pi_flux("-7/2"))):
        for q in (0, Fraction(1, 2), -1):
            spec = BoundarySpectrum(0, 1.3, flux, q=q)
            out = BoundarySpectrum(OUTER, 2.0, flux, q=q)
            for s in (UP, DOWN):
                for ell in range(-8, 9):
                    assert spec.allowed(s, ell) in (True, False)
                    assert out.allowed(s, ell) in (True, False)


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=16),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([UP, DOWN]),
)
def test_gauge_shift_relabels_allowed_sets(mult, ell, chirality):
    base = BoundarySpectrum(0, 1.0, pi_flux(mult))
    shifted = BoundarySpectrum(0, 1.0, pi_flux(mult + 2))
    assert shifted.allowed(chirality, ell + 1) == base.allowed(chirality, ell)


def test_q_shift_moves_thresholds():
    # with psi_l replaced by psi_{l+q}, membership shifts by integer q
    base = BoundarySpectrum(0, 1.0, pi_flux("1/3"))
    shifted = BoundarySpectrum(0, 1.0, pi_flux("1/3"), q=Fraction(2))
    for chirality in (UP, DOWN):
        for ell in range(-6, 7):
            assert shifted.allowed(chirality, ell + 2) == base.allowed(chirality, ell)


def _coefficients(m, entries):
    """A length-m DFT-order array holding the given {l: coefficient} entries."""
    out = np.zeros(m, dtype=complex)
    for ell, c in entries.items():
        out[ell] = c
    return out


def test_leakage_single_forbidden_term():
    spec = BoundarySpectrum(0, 1.0, 0.0)
    assert leakage(np.zeros(16, dtype=complex), spec, UP) == 0.0
    assert leakage(_coefficients(16, {0: 1.0, 3: 0.5}), spec, UP) == 0.0
    assert leakage(_coefficients(16, {-1: 2.0}), spec, DOWN) == 0.0

    # spin up at l = -1: eigenvalue 1/2, forbidden, weight (1 + 1/4)^{-1/2}
    assert spec.eigenvalue(UP, -1) == 0.5
    assert leakage(_coefficients(16, {-1: 1.0}), spec, UP) == \
        pytest.approx(1.0 / math.sqrt(1.25), rel=1e-12)
    # spin down at l = 2: eigenvalue 3/2, forbidden, weight (1 + 9/4)^{-1/2}
    assert spec.eigenvalue(DOWN, 2) == 1.5
    assert leakage(_coefficients(16, {2: 0.5j}), spec, DOWN) == \
        pytest.approx(0.25 / math.sqrt(3.25), rel=1e-12)
    # the norm weights (1 + lam^2)^{1/2} below zero and (1 + lam^2)^{-1/2} from zero
    assert hcheck_weight(np.array([-0.5, 0.0, 2.0])) == \
        pytest.approx([math.sqrt(1.25), 1.0, 1 / math.sqrt(5.0)], rel=1e-12)


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.sampled_from([0, Fraction(1, 4), Fraction(-1, 3), Fraction(1, 2), -1]),
    st.sampled_from(list(KernelChoice)),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_array_admissibility_matches_scalar_reference(mult, q, kernel, outer, seed):
    if kernel is KernelChoice.ALTERNATE:
        q = 0  # the alternate kernel is defined for q = 0 only
    spec = BoundarySpectrum(OUTER if outer else 0, 1.3, pi_flux(mult), q=q,
                            kernel_choice=kernel)
    m = 64
    rng = np.random.default_rng(seed)
    ells = np.array([k if k < m // 2 else k - m for k in range(m)])
    for chirality in (UP, DOWN):
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        mask = spec.allowed(chirality, ells)
        assert mask.tolist() == [spec.allowed(chirality, int(ell)) for ell in ells]
        leak = 0.0
        for ell, c in zip(ells.tolist(), coeffs.tolist()):
            if not spec.allowed(chirality, ell):
                lam = spec.eigenvalue(chirality, ell)
                assert lam >= 0  # negative eigenvalues are always admissible
                leak += abs(c) ** 2 / math.sqrt(1.0 + lam * lam)
        assert leakage(coeffs, spec, chirality) == pytest.approx(leak, rel=1e-12)


def test_psi_basis_orthogonality():
    # 2048-point trapezoid of psi_l conj(psi_m) over the circle
    dom = plane_with_holes([Hole(0.5, 0.6), Hole(3.0, 0.5)])
    fld = FieldSpec(hole_fluxes=[pi_flux("1/2"), pi_flux("-1/3")])
    pot = PotentialField(fld, dom)
    phis = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    exponent = pot.boundary_phase_exponent(0.5, 0.6, phis)
    enclosed = float(pi_flux("1/2"))  # the flux of the hole the circle bounds
    phase = np.exp(1j * (exponent - enclosed / TWO_PI * phis))

    def psi(ell):
        return np.exp(1j * ell * phis) * phase

    for ell, m in [(0, 0), (1, 1), (2, -1), (-3, 4), (5, 5)]:
        val = np.sum(psi(ell) * np.conj(psi(m))) * TWO_PI / len(phis)
        expected = TWO_PI if ell == m else 0.0
        assert abs(val - expected) < 1e-10


def test_trace_roundtrip_through_sampling():
    # a trace synthesized from known coefficients is recovered by the DFT
    dom = plane_with_holes([Hole(-1.0, 0.8)])
    fld = FieldSpec(hole_fluxes=[pi_flux("2/3")])
    pot = PotentialField(fld, dom)
    spec = BoundarySpectrum(0, 0.8, pi_flux("2/3"))
    phis = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    exponent = pot.boundary_phase_exponent(-1.0, 0.8, phis)
    phase = np.exp(1j * (exponent - float(pi_flux("2/3")) / TWO_PI * phis))
    up = trace_from_samples(
        spec, phis, (2.0 - 0.25j * np.exp(1j * 3 * phis)) * phase, exponent)
    down = trace_from_samples(spec, phis, 0.5 * np.exp(-1j * 2 * phis) * phase, exponent)
    assert len(up) == len(down) == 2048
    assert up[0] == pytest.approx(2.0, abs=1e-12)
    assert up[3] == pytest.approx(-0.25j, abs=1e-12)
    assert down[-2] == pytest.approx(0.5, abs=1e-12)
    assert max(np.delete(np.abs(up), [0, 3])) < 1e-12
    assert max(np.delete(np.abs(down), [-2])) < 1e-12
