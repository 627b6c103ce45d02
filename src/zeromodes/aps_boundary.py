"""Boundary operator spectra on circles and the spectral boundary condition.

On the circle of hole j (radius R, flux phi through it, shift q) the boundary
operator acts diagonally on the two spin components in the basis psi_l,
l integer, with eigenvalues

    up:   ( phi/2pi - 1/2 - l + q ) / R
    down: ( l - 1/2 - phi/2pi - q ) / R

and on the outer circle with the overall sign flipped

    up:   ( l + 1/2 - phi/2pi - q ) / R
    down: ( phi/2pi + 1/2 - l + q ) / R.

The admissible subspace takes, per spin, the eigenvectors with negative
eigenvalue plus one chosen half of the kernel: the spin-down kernel vector by
default, the spin-up one for the alternate choice.  Spelled out as index sets
(default kernel), with x = phi/2pi + q:

    hole:  up allowed iff l > x - 1/2,   down allowed iff l <= x + 1/2
    outer: up allowed iff l < x - 1/2,   down allowed iff l >= x + 1/2.

Kernel vectors exist only when x -+ 1/2 is an integer, as decided by
:func:`numutil.integer_at`.  Each spectrum decides its two thresholds once.

Trace membership is measured in the weighted norm

    ||sum c_l v_l||^2 = sum_{lambda<0} |c|^2 (1+lambda^2)^{1/2}
                      + sum_{lambda>=0} |c|^2 (1+lambda^2)^{-1/2},

and the leakage of a trace is that weight restricted to the forbidden index
set.  Traces are extracted from boundary samples by dividing out the explicit
winding phase of psi_l and taking a discrete Fourier transform; a trace is
the two DFT arrays themselves, indexed by l in DFT order, with no separate
tail.  Admissibility and weights are decided on integer index arrays, so the
norm and the leakage are one masked sum each.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

import numpy as np

from .field import FluxLike, KernelChoice, flux_over_2pi
from .geometry import OUTER
from .numutil import HALF, floor_strict, is_integer_within, threshold_sum


class Spin(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class BoundarySpectrum:
    """Eigenvalue table of the (possibly q-shifted) boundary operator on one circle."""

    boundary: int  # hole index, or OUTER for the outer circle
    radius: float
    flux_through: FluxLike
    q: Union[float, Fraction] = 0
    kernel_choice: KernelChoice = KernelChoice.DEFAULT

    def __post_init__(self):
        # Each spin admits {l <= cut} or {l > cut}, split at its threshold
        # t = x -+ 1/2.  When t sits on an integer, the kernel vector l = t
        # is on the admissible side if this spin takes the kernel half and
        # on the forbidden side otherwise.
        x = threshold_sum(flux_over_2pi(self.flux_through), self.q)
        alternate = self.kernel_choice is KernelChoice.ALTERNATE
        cuts = {}
        for spin, t in ((Spin.UP, threshold_sum(x, -HALF)),
                        (Spin.DOWN, threshold_sum(x, HALF))):
            below = (spin is Spin.UP) == self.is_outer  # admissible set lies below t
            kernel_admissible = (spin is Spin.DOWN) != alternate
            kernel_below = is_integer_within(t) and kernel_admissible == below
            cuts[spin] = (floor_strict(t) + (1 if kernel_below else 0), below)
        object.__setattr__(self, "_x", float(x))
        object.__setattr__(self, "_cuts", cuts)

    @property
    def is_outer(self) -> bool:
        return self.boundary == OUTER

    def eigenvalue(self, spin: Spin, ell):
        """Eigenvalue of the (spin, ell) basis vector; elementwise on an int array."""
        x = self._x
        if self.is_outer:
            if spin is Spin.UP:
                return (ell + 0.5 - x) / self.radius
            return (x + 0.5 - ell) / self.radius
        if spin is Spin.UP:
            return (x - 0.5 - ell) / self.radius
        return (ell - 0.5 - x) / self.radius

    def allowed(self, spin: Spin, ell):
        """Membership of the (spin, ell) basis vector in the admissible subspace.

        Elementwise on an int array, giving a boolean mask.
        """
        cut, below = self._cuts[spin]
        return ell <= cut if below else ell > cut


def hcheck_weight(eigenvalue):
    """Weight of a coefficient in the trace norm; elementwise on an array."""
    w = np.sqrt(1.0 + eigenvalue * eigenvalue)
    return np.where(eigenvalue < 0, w, 1.0 / w)


@dataclass
class TraceFourier:
    """Boundary-trace coefficients in the psi_l basis, per spin component.

    Both arrays are in DFT order: ``up[l]`` is the coefficient of psi_l for
    every resolved l, negative l indexing from the end, up to the Nyquist
    index.  Every sampled coefficient is kept, so leakage carries the whole
    resolved trace and no truncation estimate.
    """

    up: np.ndarray
    down: np.ndarray


def _dft_indices(m: int) -> np.ndarray:
    """The index l of each entry of a length-m array in DFT order."""
    return (np.arange(m) + m // 2) % m - m // 2


def trace_from_samples(
    spec: BoundarySpectrum,
    phis: np.ndarray,
    up_samples: np.ndarray,
    down_samples: np.ndarray,
    phase_exponent: np.ndarray,
) -> TraceFourier:
    """Fourier trace of boundary samples after dividing out the psi_l phase.

    ``phis`` must be a uniform grid of 2^k angles starting at 0;
    ``phase_exponent`` is int_gamma a.ds from angle 0 to each phi.  psi_l
    equals exp(i l phi) times exp(i(phase_exponent - (phi/2pi)_enclosed phi)),
    so after dividing by that unimodular factor a plain DFT yields the
    coefficients.
    """
    m = len(phis)
    if m < 2 or m & (m - 1):
        raise ValueError("trace sampling needs a power-of-two number of angles")
    c_enc = float(flux_over_2pi(spec.flux_through))
    phase = np.exp(1j * (phase_exponent - c_enc * phis))
    return TraceFourier(
        up=np.fft.fft(np.asarray(up_samples, dtype=complex) / phase) / m,
        down=np.fft.fft(np.asarray(down_samples, dtype=complex) / phase) / m,
    )


def _weighted_sum(coeffs: TraceFourier, spec: BoundarySpectrum, forbidden_only: bool) -> float:
    """Sum of |c_l|^2 times the norm weight, over all or over forbidden indices."""
    total = 0.0
    for spin, c in ((Spin.UP, coeffs.up), (Spin.DOWN, coeffs.down)):
        ells = _dft_indices(len(c))
        terms = np.abs(c) ** 2 * hcheck_weight(spec.eigenvalue(spin, ells))
        if forbidden_only:
            terms = terms[~spec.allowed(spin, ells)]
        total += float(np.sum(terms))
    return total


def check_norm(coeffs: TraceFourier, spec: BoundarySpectrum) -> float:
    """Weighted squared trace norm over every stored coefficient."""
    return _weighted_sum(coeffs, spec, forbidden_only=False)


def leakage(coeffs: TraceFourier, spec: BoundarySpectrum) -> float:
    """Weighted norm of the trace projected onto the forbidden index sets.

    Sums every resolved index up to the Nyquist index, so the value is zero
    (up to rounding) exactly when the trace lies in the admissible subspace.
    """
    return _weighted_sum(coeffs, spec, forbidden_only=True)
