"""Flux normalization, totals, and the smooth field sampler."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad

import zeromodes
from zeromodes import (
    FieldSpec,
    Hole,
    KernelChoice,
    Profile,
    RadialBump,
    SphereFluxMismatch,
    disc_with_holes,
    eval_B,
    normalize_flux,
    pi_flux,
    plane_with_holes,
    sphere_with_holes,
    validate_field,
)
from zeromodes.field import gauss_nodes
from zeromodes.conformal import flat_problem

TWO_PI = 2 * math.pi


def test_normalize_examples():
    nf = normalize_flux(5 * math.pi)
    assert nf.value == pytest.approx(-math.pi)
    assert nf.gauge_integer == 3

    nf = normalize_flux(0.0)
    assert (nf.value, nf.gauge_integer) == (0.0, 0)

    nf = normalize_flux(math.pi, 0, KernelChoice.ALTERNATE)
    assert nf.value == pytest.approx(math.pi)
    assert nf.gauge_integer == 0


def test_normalize_interval_ends():
    # default: [-pi, pi), ties at the lower closed end stay
    assert normalize_flux(pi_flux(1)).value.multiplier == Fraction(-1)
    assert normalize_flux(pi_flux(-1)).value.multiplier == Fraction(-1)
    # alternate: (-pi, pi]
    assert normalize_flux(pi_flux(-1), 0, KernelChoice.ALTERNATE).value.multiplier == 1
    # general q: value/2pi in [-q-1/2, -q+1/2)
    nf = normalize_flux(pi_flux(0), Fraction(1))
    assert nf.value.multiplier / 2 == Fraction(-1)
    nf = normalize_flux(pi_flux(3), Fraction(1, 2))
    assert Fraction(-1, 2) - Fraction(1, 2) <= nf.value.multiplier / 2 < 0


@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=64),
    st.integers(min_value=-5, max_value=5),
)
def test_normalize_gauge_periodicity_exact(mult, k):
    base = normalize_flux(pi_flux(mult))
    shifted = normalize_flux(pi_flux(mult + 2 * k))
    assert shifted.value.multiplier == base.value.multiplier
    assert shifted.gauge_integer == base.gauge_integer + k


@given(st.floats(min_value=-100.0, max_value=100.0), st.integers(-4, 4))
def test_normalize_gauge_periodicity_float(phi, k):
    base = normalize_flux(phi)
    shifted = normalize_flux(phi + TWO_PI * k)
    assert float(shifted.value) == pytest.approx(float(base.value), abs=1e-9)


@given(st.fractions(min_value=-1, max_value=1, max_denominator=64))
def test_normalize_identity_on_target_interval(mult):
    # exact representatives of [-pi, pi)
    if mult == 1:
        mult = -1
    nf = normalize_flux(pi_flux(mult))
    assert nf.gauge_integer == 0
    assert nf.value.multiplier == mult


@given(st.floats(min_value=-math.pi, max_value=math.pi - 1e-9))
def test_normalize_identity_on_target_interval_float(phi):
    # floats away from the half-open end, where rounding in phi/2pi is benign
    nf = normalize_flux(phi)
    assert nf.gauge_integer == 0
    assert float(nf.value) == phi


@given(st.fractions(min_value=-40, max_value=40, max_denominator=64))
def test_normalized_offset_is_exactly_gauge_integer(mult):
    nf = normalize_flux(pi_flux(mult))
    assert mult - nf.value.multiplier == 2 * nf.gauge_integer


def test_total_flux_examples():
    fld = FieldSpec(
        bumps=[RadialBump(0.0, 1.0, 2 * math.pi, Profile.UNIFORM_DISC)],
        hole_fluxes=[5 * math.pi],
    )
    dom = plane_with_holes([Hole(4.0, 0.5)])
    assert flat_problem(dom, fld) == (dom, fld)
    assert float(fld.total_flux) == pytest.approx(math.pi)
    with pytest.raises(ValueError, match="field carries 1 hole fluxes for 0 holes"):
        flat_problem(plane_with_holes([]), fld)

    empty = FieldSpec()
    assert float(empty.total_flux) == 0.0


def test_total_flux_gauge_invariance():
    fld = FieldSpec(hole_fluxes=[pi_flux("1/2"), pi_flux("-1/4")])
    shifted = FieldSpec(hole_fluxes=[pi_flux("5/2"), pi_flux("-1/4")])
    assert fld.total_flux.multiplier == shifted.total_flux.multiplier


def test_sphere_total_is_semi_total_and_balance_checked():
    dom = sphere_with_holes([Hole(1.0, 0.3), Hole(-1.0, 0.3), Hole(0.0, 3.0)],
                            omitted_hole=2)
    fld = FieldSpec(hole_fluxes=[pi_flux("1/2"), pi_flux("-1/2"), pi_flux(0)])
    flat = flat_problem(dom, fld)[1]
    assert flat.total_flux.multiplier == Fraction(0)
    # zero-sum verified by summation of the raw fluxes
    assert float(pi_flux("1/2")) + float(pi_flux("-1/2")) + 0.0 == 0.0
    # the semi-total is the total of every hole but the designated one
    assert flat.hole_fluxes == fld.hole_fluxes[:2]
    assert FieldSpec(hole_fluxes=fld.hole_fluxes[1:]).total_flux.multiplier == Fraction(-1, 2)

    bad = FieldSpec(hole_fluxes=[pi_flux("1/2"), pi_flux("-1/2"), pi_flux(1)])
    with pytest.raises(SphereFluxMismatch):
        flat_problem(dom, bad)


def test_semi_total_example_half_pi():
    dom = sphere_with_holes([Hole(1.0, 0.3), Hole(0.0, 3.0)], omitted_hole=1)
    fld = FieldSpec(hole_fluxes=[pi_flux("1/2"), pi_flux("-1/2")])
    assert float(flat_problem(dom, fld)[1].total_flux) == pytest.approx(math.pi / 2)


def test_eval_B_uniform_disc():
    fld = FieldSpec(bumps=[RadialBump(0.0, 2.0, 4.0, Profile.UNIFORM_DISC)])
    assert eval_B(fld, 0.5 + 0.5j) == pytest.approx(4.0 / (math.pi * 4.0))
    assert eval_B(fld, 3.0) == 0.0


def test_eval_B_outside_supports_is_zero():
    fld = FieldSpec(bumps=[RadialBump(1.0 + 1.0j, 0.5, 2.0)])
    assert eval_B(fld, -2.0) == 0.0


def test_smooth_bump_integrates_to_flux():
    # independent 2D quadrature of the sampled density
    fld = FieldSpec(bumps=[RadialBump(0.5 + 0.25j, 0.8, 1.7)])
    val, err = dblquad(
        lambda y, x: eval_B(fld, complex(x, y)),
        -0.45, 1.45, -0.65, 1.15, epsabs=1e-10,
    )
    assert val == pytest.approx(1.7, abs=1e-8)


def test_validate_field_containment():
    dom = disc_with_holes(3.0, [Hole(1.5, 0.4)])
    ok = FieldSpec(bumps=[RadialBump(-1.0, 0.5, 1.0)], hole_fluxes=[0.0])
    assert validate_field(ok, dom) == []
    bad = FieldSpec(bumps=[RadialBump(1.0, 0.5, 1.0)], hole_fluxes=[0.0])
    assert any("touches hole" in v for v in validate_field(bad, dom))
    outside = FieldSpec(bumps=[RadialBump(2.8, 0.5, 1.0)], hole_fluxes=[0.0])
    assert any("outer" in v for v in validate_field(outside, dom))


def test_smooth_bump_field_builds_without_scipy():
    script = (
        "import sys\n"
        "from zeromodes import PotentialField, RadialBump, FieldSpec, disc_with_holes\n"
        "fld = FieldSpec(bumps=[RadialBump(0.0, 0.6, 1.0)])\n"
        "PotentialField(fld, disc_with_holes(3.0))\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    # the child imports this same checkout of the package
    env = dict(os.environ, PYTHONPATH=str(Path(zeromodes.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gauss_nodes_are_read_only():
    # every quadrature shares the cached rule, so a write must not reach it
    x, w = gauss_nodes()
    for array in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    assert gauss_nodes()[0] is x and float(w.sum()) == pytest.approx(2.0)
