"""Local boundary condition on the concentric annulus."""

import math

import numpy as np
import pytest

from zeromodes import BMConfig, bm_flux_sweep, bm_verify, bm_zero_mode, pi_flux

OPP = BMConfig(1.0, 2.0, math.pi, 1.0, -1.0)


def test_mode_exists_at_pi_with_opposite_signs():
    mode = bm_zero_mode(OPP)
    assert mode is not None
    assert mode.n == 1
    assert mode.exponent == pytest.approx(0.0)


def test_no_mode_at_even_multiples_or_same_signs():
    assert bm_zero_mode(BMConfig(1.0, 2.0, 2 * math.pi, 1.0, -1.0)) is None
    assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, 1.0, 1.0)) is None
    assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, -2.0, -3.0)) is None


def test_mode_matches_paper_form():
    mode = bm_zero_mode(OPP)
    z = 1.5 * np.exp(0.4j)
    # u- = |z|^{phi/2pi} conj(z)^{-n},  u+ = i |z|^{-phi/2pi} z^{n-1} / S_in
    assert mode.eval_down(z) == pytest.approx(abs(z) ** 0.5 * np.conj(z) ** -1)
    assert mode.eval_up(z) == pytest.approx(1j * abs(z) ** -0.5 / 1.0)


def test_bm_verify_passes():
    mode = bm_zero_mode(OPP)
    report = bm_verify(OPP, mode)
    assert report.pde_residual < 1e-6
    assert all(v < 1e-8 for v in report.trace_leakage.values())
    assert report.passed


def test_bm_verify_rejects_sign_flip():
    mode = bm_zero_mode(OPP)

    class Flipped:
        n = mode.n
        exponent = mode.exponent
        config = mode.config

        def eval_up(self, z):
            return -mode.eval_up(z)

        def eval_down(self, z):
            return mode.eval_down(z)

    report = bm_verify(OPP, Flipped())
    assert max(report.trace_leakage.values()) > 0.1
    assert not report.passed


def test_bm_verify_rejects_non_solution():
    mode = bm_zero_mode(OPP)

    class Bent:
        n = mode.n
        exponent = mode.exponent
        config = mode.config

        def eval_up(self, z):
            return np.abs(z) ** 0.5 * mode.eval_up(z)

        def eval_down(self, z):
            return mode.eval_down(z)

    report = bm_verify(OPP, Bent())
    assert report.pde_residual > 0.1
    assert not report.passed


def test_bm_verify_is_scale_invariant():
    mode = bm_zero_mode(OPP)

    class Scaled:
        n = mode.n
        exponent = mode.exponent
        config = mode.config

        def eval_up(self, z):
            return 7.0 * mode.eval_up(z)

        def eval_down(self, z):
            return 7.0 * mode.eval_down(z)

    assert bm_verify(OPP, Scaled()).passed


def test_sweep_finds_modes_at_odd_multiples_only():
    values = [pi_flux(Fractional) for Fractional in
              [f"{k}/2" for k in range(0, 9)]]
    rows = bm_flux_sweep(OPP, values)
    assert all(sorted(row) == ["has_mode", "n", "phi"] for row in rows)
    hits = [r["phi"] / math.pi for r in rows if r["has_mode"]]
    assert hits == pytest.approx([1.0, 3.0])

    same = BMConfig(1.0, 2.0, math.pi, 1.0, 1.0)
    rows = bm_flux_sweep(same, values)
    assert not any(r["has_mode"] for r in rows)


def test_existence_invariant_under_rescaling():
    for c in (0.5, 3.0, 11.0):
        cfg = BMConfig(c * 1.0, c * 2.0, math.pi, 1.0, -1.0)
        assert bm_zero_mode(cfg) is not None
        cfg2 = BMConfig(c * 1.0, c * 2.0, 2 * math.pi, 1.0, -1.0)
        assert bm_zero_mode(cfg2) is None


def test_existence_depends_on_sign_for_matched_magnitudes():
    # within |S_in| = |S_out| the only thing that matters is the sign of
    # -S_in/S_out; unbalanced magnitudes shift the matching flux instead
    for s in (0.5, 1.0, 4.0):
        assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, s, -s)) is not None
        assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, -s, s)) is not None
        assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, s, s)) is None


def test_unbalanced_magnitudes_shift_the_matching_flux():
    # K = 1/2 with R1/R2 = 1/2 matches at exponent 1: flux 2n*pi instead
    cfg = BMConfig(1.0, 2.0, 2 * math.pi, 1.0, -2.0)
    mode = bm_zero_mode(cfg)
    assert mode is not None and mode.exponent == pytest.approx(1.0)
    assert bm_verify(cfg, mode).passed
    assert bm_zero_mode(BMConfig(1.0, 2.0, math.pi, 1.0, -2.0)) is None


def test_bm_verify_fails_a_spinor_that_is_nan_at_one_residual_point():
    from zeromodes.geometry import Annulus
    from zeromodes.zero_modes import GridSpec, _polar_chunks

    grid = GridSpec()
    bad = np.concatenate([make() for _, make in _polar_chunks(
        0.0, Annulus(OPP.r_inner, OPP.r_outer), grid.radial, grid.angular)])[777]
    mode = bm_zero_mode(OPP)

    class Spoiled(type(mode)):
        def eval_up(self, z):
            return np.where(z == bad, np.nan, super().eval_up(z))

    report = bm_verify(OPP, Spoiled(mode.n, mode.exponent, mode.config))
    assert math.isnan(report.pde_residual)
    assert not report.passed


def test_bm_verify_fails_a_nan_residual_in_a_later_chunk(monkeypatch):
    from zeromodes import zero_modes
    from zeromodes.geometry import Annulus
    from zeromodes.zero_modes import GridSpec, _polar_chunks

    monkeypatch.setattr(zero_modes, "_CHUNK_POINTS", 1000)
    # the NaN reaches residual point 5000 (the sixth chunk) through one
    # stencil point, and no modulus: a running maximum kept with `>` drops it
    grid = GridSpec()
    step = grid.fd_step_factor * OPP.r_inner
    zs = np.concatenate([make() for _, make in _polar_chunks(
        0.0, Annulus(OPP.r_inner, OPP.r_outer), grid.radial, grid.angular)])
    bad = zs[5000] + 1j * step
    mode = bm_zero_mode(OPP)
    assert bm_verify(OPP, mode).passed

    class Spoiled(type(mode)):
        def eval_down(self, z):
            return np.where(z == bad, np.nan, super().eval_down(z))

    report = bm_verify(OPP, Spoiled(mode.n, mode.exponent, mode.config))
    assert math.isnan(report.pde_residual)
    assert not report.passed


@pytest.mark.parametrize("s_inner,s_outer", [(1e300, 1e-300), (1e-300, 1e300),
                                             (-1e300, -1e-300)])
def test_same_signs_past_the_float_range_give_no_mode(s_inner, s_outer):
    # K = -S_in/S_out is negative (or -0.0, or -inf): no matching exponent
    assert bm_zero_mode(BMConfig(0.001, 1.0, pi_flux(1), s_inner, s_outer)) is None


@pytest.mark.parametrize("s_inner,s_outer", [(1e300, -1e-300), (1e-300, -1e300)])
def test_opposite_signs_past_the_float_range_are_refused(s_inner, s_outer):
    with pytest.raises(ValueError, match="rescale S"):
        BMConfig(0.001, 1.0, pi_flux(1), s_inner, s_outer)
