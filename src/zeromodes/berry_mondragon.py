"""Local boundary condition u- = -i(n1 + i n2) S u+ on a concentric annulus.

With all flux Phi inside the inner hole (delta gauge, h = -(Phi/2pi) log|z|)
the condition couples the Laurent coefficients of the two chirality
components circle by circle.  Matching the inner and outer relations forces

    (R1/R2)^E = K,   E = Phi/pi - 2n + 1,   K = -S_in/S_out,

for some integer n, so a zero mode exists only when K > 0 and the matching
exponent E = log(K)/log(R1/R2) makes n = (Phi/pi + 1 - E)/2 an integer (as
:func:`numutil.integer_at` decides it: exactly for a PiFlux when K = 1).  For
|S_in| = |S_out| (K = 1) this is exactly "flux an odd multiple of pi with
opposite signs of S", one mode per 2pi of flux, and the mode is

    u- = |z|^{Phi/2pi} conj(z)^{-n},
    u+ = i |z|^{-Phi/2pi} z^{n-1} R1^{E} / S_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ._numpy import np
from .field import FluxLike, PiFlux, TWO_PI
from .geometry import Annulus
from .numutil import integer_at
from .zero_modes import GridSpec, VerificationReport, pde_residuals, polar_chunks

__all__ = ["BMConfig", "BMMode", "bm_flux_sweep", "bm_verify", "bm_zero_mode"]

# points per circle at which the boundary relation is checked
_BOUNDARY_SAMPLES = 512


@dataclass(frozen=True)
class BMConfig:
    r_inner: float
    r_outer: float
    phi: FluxLike
    s_inner: float
    s_outer: float

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")
        if self.s_inner == 0 or self.s_outer == 0:
            raise ValueError("S must be nonzero on both boundary circles")
        # opposite signs make K = -S_in/S_out positive; K must be a float > 0
        ratio = -self.s_inner / self.s_outer
        if (self.s_inner > 0) != (self.s_outer > 0) and not 0 < ratio < math.inf:
            raise ValueError(f"S_in/S_out = {self.s_inner!r}/{self.s_outer!r} leaves the "
                             "float range; rescale S on both circles")


@dataclass(frozen=True)
class BMMode:
    n: int
    exponent: float  # E = phi/pi - 2n + 1, zero when |S_in| = |S_out|
    config: BMConfig

    def eval_up(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        x = float(self.config.phi) / TWO_PI
        amp = 1j * self.config.r_inner ** self.exponent / self.config.s_inner
        return amp * np.abs(z) ** (-x) * z ** (self.n - 1)

    def eval_down(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        x = float(self.config.phi) / TWO_PI
        return np.abs(z) ** x * np.conj(z) ** (-self.n)


def bm_zero_mode(cfg: BMConfig) -> Optional[BMMode]:
    """The unique zero mode of the annulus problem, if the matching admits one."""
    ratio = -cfg.s_inner / cfg.s_outer
    if ratio <= 0:
        return None
    exponent = math.log(ratio) / math.log(cfg.r_inner / cfg.r_outer)
    if isinstance(cfg.phi, PiFlux) and exponent == 0.0:
        # S_in = -S_out: n = (m + 1)/2 for phi = m*pi, decided exactly
        n = integer_at((cfg.phi.multiplier + 1) / 2)
    else:
        n = integer_at((float(cfg.phi) / math.pi + 1.0 - exponent) / 2.0)
    if n is None:
        return None
    return BMMode(n=n, exponent=exponent, config=cfg)


def bm_verify(
    cfg: BMConfig,
    mode: BMMode,
    tol_residual: float = 1e-6,
    tol_boundary: float = 1e-8,
) -> VerificationReport:
    """Finite-difference PDE residual plus pointwise boundary-relation check."""
    x = float(cfg.phi) / TWO_PI
    grid = GridSpec()
    chunks = polar_chunks(0.0, Annulus(cfg.r_inner, cfg.r_outer), grid.radial, grid.angular)

    def vec_a(z):
        return 1j * x * z / np.abs(z) ** 2

    def components_at(z):
        return mode.eval_up(z), mode.eval_down(z)

    step = grid.fd_step_factor * cfg.r_inner
    (pde_residual, richardson), = pde_residuals(components_at, (True, False), vec_a, chunks,
                                                step, tol_residual)

    phis = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_SAMPLES, endpoint=False)
    boundary: Dict[str, float] = {}
    for label, radius, sign, s_val in (
        ("inner", cfg.r_inner, -1.0, cfg.s_inner),
        ("outer", cfg.r_outer, +1.0, cfg.s_outer),
    ):
        pts = radius * np.exp(1j * phis)
        up = mode.eval_up(pts)
        down = mode.eval_down(pts)
        norm = max(float(np.max(np.abs(up))), float(np.max(np.abs(down))))
        # u- = sign * S i e^{i phi} u+  (minus on the inner, plus on the outer circle)
        rel = down - sign * s_val * 1j * np.exp(1j * phis) * up
        boundary[label] = float(np.max(np.abs(rel))) / norm

    passed = pde_residual < tol_residual and all(
        v < tol_boundary for v in boundary.values()
    )
    return VerificationReport(
        pde_residual=pde_residual,
        trace_leakage=boundary,
        integrability_exponent_ok=None,
        richardson_factor=richardson,
        passed=passed,
        tolerances={"pde_residual": tol_residual, "boundary": tol_boundary},
    )


def bm_flux_sweep(cfg: BMConfig, phi_values: Sequence[FluxLike]) -> List[dict]:
    """Mode-existence table over a flux sweep: one ``{phi, has_mode, n}`` row
    per flux, each for ``cfg`` with that flux."""
    rows: List[dict] = []
    for phi in phi_values:
        mode = bm_zero_mode(replace(cfg, phi=phi))
        rows.append({
            "phi": float(phi),
            "has_mode": mode is not None,
            "n": mode.n if mode is not None else None,
        })
    return rows
