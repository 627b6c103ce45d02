"""Boundary operator spectra on circles and the spectral boundary condition.

On the circle of hole j (radius R, flux phi through it, shift q) the boundary
operator acts diagonally on the two spinor components in the basis psi_l,
l integer, with eigenvalues

    up:   ( phi/2pi - 1/2 - l + q ) / R
    down: ( l - 1/2 - phi/2pi - q ) / R

and on the outer circle with the overall sign flipped

    up:   ( l + 1/2 - phi/2pi - q ) / R
    down: ( phi/2pi + 1/2 - l + q ) / R.

The admissible subspace takes, per chirality, the eigenvectors with negative
eigenvalue plus one chosen half of the kernel: the spin-down kernel vector by
default, the spin-up one for the alternate choice.  Spelled out as index sets
(default kernel), with x = phi/2pi + q:

    hole:  up allowed iff l > x - 1/2,   down allowed iff l <= x + 1/2
    outer: up allowed iff l < x - 1/2,   down allowed iff l >= x + 1/2.

Kernel vectors exist only when x -+ 1/2 is an integer, as decided by
:func:`numutil.integer_at`, and each chirality's cut is
:func:`numutil.floor_strict` of its threshold.  Each spectrum decides its two
thresholds once.

Trace membership is measured in the weighted norm

    ||sum c_l v_l||^2 = sum_{lambda<0} |c|^2 (1+lambda^2)^{1/2}
                      + sum_{lambda>=0} |c|^2 (1+lambda^2)^{-1/2},

and the leakage of a trace is that weight restricted to the forbidden index
set, where lambda >= 0 and the weight is always (1+lambda^2)^{-1/2}.  Every
zero mode has a definite chirality, so its trace is one spinor component:
the samples of that component with the explicit winding phase of psi_l
divided out, transformed by one discrete Fourier transform.  The trace is
that DFT array itself, indexed by l in DFT order, with no separate tail, and
the leakage is one masked, weighted sum over the chirality's forbidden
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from ._numpy import np
from .field import FluxLike, KernelChoice, flux_over_2pi
from .geometry import OUTER
from .numutil import HALF, floor_strict, integer_at, threshold_sum

__all__ = ["BoundarySpectrum", "Chirality", "leakage", "trace_from_samples"]


class Chirality(Enum):
    """The nonzero spinor component of a zero mode; NONE when there is no mode."""

    UP = "up"
    DOWN = "down"
    NONE = "none"


@dataclass(frozen=True)
class BoundarySpectrum:
    """Eigenvalue table of the (possibly q-shifted) boundary operator on one circle."""

    boundary: int  # hole index, or OUTER for the outer circle
    radius: float
    flux_through: FluxLike
    q: Union[float, Fraction] = 0
    kernel_choice: KernelChoice = KernelChoice.DEFAULT

    def __post_init__(self):
        # Each chirality admits {l <= cut} or {l > cut}, split at its
        # threshold t = x -+ 1/2.  When t sits on an integer, the kernel
        # vector l = t is on the admissible side if this chirality takes the
        # kernel half and on the forbidden side otherwise.
        x = threshold_sum(flux_over_2pi(self.flux_through), self.q)
        alternate = self.kernel_choice is KernelChoice.ALTERNATE
        cuts = {}
        for chirality, t in ((Chirality.UP, threshold_sum(x, -HALF)),
                             (Chirality.DOWN, threshold_sum(x, HALF))):
            below = (chirality is Chirality.UP) == self.is_outer  # admissible set lies below t
            kernel_admissible = (chirality is Chirality.DOWN) != alternate
            kernel_below = integer_at(t) is not None and kernel_admissible == below
            cuts[chirality] = (floor_strict(t) + (1 if kernel_below else 0), below)
        object.__setattr__(self, "_x", float(x))
        object.__setattr__(self, "_cuts", cuts)

    @property
    def is_outer(self) -> bool:
        return self.boundary == OUTER

    def eigenvalue(self, chirality: Chirality, ell):
        """Eigenvalue of the (chirality, ell) basis vector; elementwise on an int array.

        ``chirality`` is UP or DOWN.
        """
        x = self._x
        if self.is_outer:
            if chirality is Chirality.UP:
                return (ell + 0.5 - x) / self.radius
            return (x + 0.5 - ell) / self.radius
        if chirality is Chirality.UP:
            return (x - 0.5 - ell) / self.radius
        return (ell - 0.5 - x) / self.radius

    def allowed(self, chirality: Chirality, ell):
        """Membership of the (chirality, ell) basis vector in the admissible subspace.

        ``chirality`` is UP or DOWN.  Elementwise on an int array, giving a
        boolean mask.
        """
        cut, below = self._cuts[chirality]
        return ell <= cut if below else ell > cut


def _dft_indices(m: int) -> np.ndarray:
    """The index l of each entry of a length-m array in DFT order."""
    return (np.arange(m) + m // 2) % m - m // 2


def trace_from_samples(
    spec: BoundarySpectrum,
    phis: np.ndarray,
    samples: np.ndarray,
    phase_exponent: np.ndarray,
) -> np.ndarray:
    """Fourier trace of one spinor component's boundary samples.

    ``phis`` must be a uniform grid of 2^k angles starting at 0;
    ``phase_exponent`` is int_gamma a.ds from angle 0 to each phi.  psi_l
    equals exp(i l phi) times exp(i(phase_exponent - (phi/2pi)_enclosed phi)),
    so after dividing by that unimodular factor a plain DFT yields the
    coefficients: entry l of the returned array, in DFT order (negative l
    from the end, up to the Nyquist index), is the coefficient of psi_l.
    """
    m = len(phis)
    if m < 2 or m & (m - 1):
        raise ValueError("trace sampling needs a power-of-two number of angles")
    c_enc = float(flux_over_2pi(spec.flux_through))
    phase = np.exp(1j * (phase_exponent - c_enc * phis))
    return np.fft.fft(np.asarray(samples, dtype=complex) / phase) / m


def leakage(coeffs: np.ndarray, spec: BoundarySpectrum, chirality: Chirality) -> float:
    """Weighted norm of one chirality's trace projected onto its forbidden indices.

    Sums every resolved index up to the Nyquist index, so the value is zero
    (up to rounding) exactly when the trace lies in the admissible subspace.
    """
    ells = _dft_indices(len(coeffs))
    forbidden = ~spec.allowed(chirality, ells)
    lam = spec.eigenvalue(chirality, ells[forbidden])  # >= 0 on every forbidden index
    return float(np.sum(np.abs(coeffs[forbidden]) ** 2 * (1.0 / np.sqrt(1.0 + lam * lam))))
