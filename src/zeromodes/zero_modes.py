"""Zero-mode counting, explicit bases, and independent numerical verification.

Counting (floor_strict(y) = biggest integer strictly below y, Phi = total or
semi-total flux, x = Phi/2pi):

    plane:            floor_strict(|x|) modes, spin up iff Phi > 0
    disc, shift q:    |floor_strict(x + q + 1/2)|, spin up iff that floor is > 0
    disc, alternate:  |floor_strict(-x + 1/2)|, spin up iff that floor is < 0
    sphere:           |floor_strict(x_hat + 1/2)| with the semi-total flux

Thresholds follow the one policy of :mod:`numutil`.

Every mode is a definite-chirality spinor u+ = e^{h} p(z) or
u- = e^{-h} p(conj z) with p a polynomial; sphere modes carry an extra
W^{-1/2} conformal dressing.  The admissible monomial degrees are

    plane:  up 0 <= n < x - 1,            down 0 <= n < -x - 1
    disc:   up 0 <= n < x + q - 1/2,      down 0 <= n <= -x - q - 1/2
    (alternate kernel swaps the strictness of the two end conditions).

Verification is independent of the construction: the Dirac equation is
checked by fourth-order central differencing on polar annulus grids plus a
Cartesian bulk grid, the boundary condition by Fourier-projecting the trace
onto the forbidden index sets, and square integrability at infinity by the
degree-exponent inequality plus a far-field decay sample.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ._numpy import np
from . import conformal
from .aps_boundary import BoundarySpectrum, Chirality, leakage, trace_from_samples
from .errors import EmptyBasis, GridTooCoarse
from .field import (
    FieldSpec,
    KernelChoice,
    Profile,
    flux_over_2pi,
    support_extents_from,
    support_radii_from,
)
from .geometry import OUTER, Annulus, DomainKind, DomainSpec, annulus_probe
from .numutil import HALF, floor_strict, threshold_sum
from .potential import PotentialField


@dataclass(frozen=True)
class ZeroModeCount:
    count: int
    chirality: Chirality


def count_zero_modes(domain: DomainSpec, fld: FieldSpec) -> ZeroModeCount:
    """Number of zero modes and their common chirality."""
    x = flux_over_2pi(conformal.flat_problem(domain, fld)[1].total_flux)
    if domain.kind is DomainKind.PLANE:
        n = max(0, floor_strict(abs(x)))
        signed = n if x > 0 else -n
    elif fld.kernel_choice is KernelChoice.ALTERNATE:
        signed = -floor_strict(threshold_sum(-x, HALF))
    else:
        # disc with shift q, and the sphere via its semi-total flux (q = 0 there)
        signed = floor_strict(threshold_sum(x, fld.q_shift, HALF))
    if signed == 0:
        return ZeroModeCount(0, Chirality.NONE)
    return ZeroModeCount(abs(signed), Chirality.UP if signed > 0 else Chirality.DOWN)


@dataclass(frozen=True)
class ZeroMode:
    """One definite-chirality solution e^{+-h} * polynomial (W-dressed on spheres)."""

    chirality: Chirality
    coefficients: Dict[int, complex]
    potential: PotentialField

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    @property
    def w_dressed(self) -> bool:
        """Whether the mode carries the sphere's W^{-1/2} conformal dressing."""
        return self.potential.domain.kind is DomainKind.SPHERE

    def eval(self, z) -> np.ndarray:
        """Value of the nonzero spinor component at z."""
        scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.shape == ())
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = next(_basis_at([self], self.chirality, self.potential)(z))
        if self.w_dressed:
            out = out / np.sqrt(conformal.conformal_factor(z))
        return out[0] if scalar else out


@dataclass(frozen=True)
class ZeroModeBasis:
    chirality: Chirality
    degrees: List[int]
    potential: PotentialField

    def modes(self) -> List[ZeroMode]:
        return [ZeroMode(self.chirality, {n: 1.0 + 0.0j}, self.potential)
                for n in self.degrees]


def build_basis(
    domain: DomainSpec, fld: FieldSpec, potential: PotentialField
) -> ZeroModeBasis:
    """Monomial basis of the zero-mode space; raises EmptyBasis when count is 0."""
    counted = count_zero_modes(domain, fld)
    if counted.count == 0:
        raise EmptyBasis("the configuration has no zero modes")
    return ZeroModeBasis(
        chirality=counted.chirality,
        degrees=list(range(counted.count)),
        potential=potential,
    )


def _powers(var: np.ndarray, lo: int, hi: int) -> Dict[int, np.ndarray]:
    """var^n for lo <= n <= hi (and n = 0, 1), one multiply per degree.

    Negative degrees are powers of 1/var, built the same way.
    """
    powers = {0: np.ones_like(var), 1: var}
    for n in range(2, hi + 1):
        powers[n] = powers[n - 1] * var
    if lo < 0:
        powers[-1] = 1 / var
        for n in range(-2, lo - 1, -1):
            powers[n] = powers[n + 1] * powers[-1]
    return powers


def _combine(coefficients: Dict[int, complex], powers: Dict[int, np.ndarray]) -> np.ndarray:
    """sum_n c_n var^n from the powers of var, in ascending degree (a new array)."""
    first, *rest = sorted(coefficients)
    out = coefficients[first] * powers[first]
    for n in rest:
        out += coefficients[n] * powers[n]
    return out


def _basis_at(modes: Sequence["ZeroMode"], chirality, potential):
    """The function z -> the flat (undressed) value of every mode at z, in order.

    One e^{+-h} and one walk up the powers of z (or conj z) serve all the modes.
    """
    lo = min(min(mode.coefficients) for mode in modes)
    top = max(mode.degree for mode in modes)

    def at(z):
        if chirality is Chirality.UP:
            factor, var = np.exp(potential.eval_h(z)), z
        else:
            factor, var = np.exp(-potential.eval_h(z)), np.conj(z)
        powers = _powers(var, lo, top)
        for mode in modes:
            poly = _combine(mode.coefficients, powers)
            yield np.multiply(factor, poly, out=poly)

    return at


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------


# points per annulus (radial * angular) and samples per circle, so every grid
# does a bounded amount of work
MAX_ANNULUS_POINTS, MAX_BOUNDARY_SAMPLES = 2 ** 22, 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Grid and stencil parameters for the verification oracles."""

    radial: int = 64
    angular: int = 256
    bulk_divisor: int = 32
    fd_step_factor: float = 3e-3
    fd_step: Optional[float] = None  # explicit step overrides the factor rule
    n_boundary_samples: int = 2048
    decay_radius: float = 1e3
    max_bulk_points: int = 2_000_000

    def __post_init__(self):
        for name in ("radial", "angular", "max_bulk_points"):  # point counts
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"grid {name} must be an integer, got {value!r}")
        for name, value in vars(self).items():
            if isinstance(value, bool):  # True > 0, so it would run as 1
                raise ValueError(f"grid {name} must be a number, got {value!r}")
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"grid {name} must be positive and finite, got {value!r}")
        if self.radial * self.angular > MAX_ANNULUS_POINTS:
            raise ValueError(f"grid radial * angular is {self.radial * self.angular} points "
                             f"per annulus; at most {MAX_ANNULUS_POINTS} are allowed")
        m = self.n_boundary_samples
        if not isinstance(m, int) or not 2 <= m <= MAX_BOUNDARY_SAMPLES or m & (m - 1):
            raise ValueError(f"grid n_boundary_samples must be a power of two from 2 to "
                             f"{MAX_BOUNDARY_SAMPLES}, got {m!r}")


@dataclass(frozen=True)
class VerificationReport:
    pde_residual: float
    trace_leakage: Dict[str, float]
    integrability_exponent_ok: Optional[bool]
    richardson_factor: float
    passed: bool
    tolerances: Dict[str, float]


def _fd_scale(domain: DomainSpec, fld: FieldSpec) -> float:
    lengths = [h.radius for h in domain.holes]
    lengths += [b.support_radius for b in fld.bumps]
    if domain.kind is DomainKind.DISC:
        lengths.append(domain.radius_out / 4.0)
    return min(lengths) if lengths else 1.0


def _grid_reference(domain: DomainSpec, fld: FieldSpec) -> float:
    if domain.holes:
        return min(h.radius for h in domain.holes)
    if fld.bumps:
        return min(b.support_radius for b in fld.bumps)
    return domain.radius_out / 8.0 if domain.kind is DomainKind.DISC else 1.0


def _polar_points(center: complex, annulus: Annulus, radial: int, angular: int):
    radii = annulus.inner + (annulus.outer - annulus.inner) * \
        (np.arange(radial) + 0.5) / radial
    angles = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    return (center + radii[:, None] * np.exp(1j * angles[None, :])).ravel()


# points per chunk of the residual pass, and at most per block of bulk lattice
# rows (one row at least): a chunk's values at one stencil shift and three
# partial arrays per component take a few MB, not nine full-size arrays
_CHUNK_POINTS = 16384


def _bulk_points(domain: DomainSpec, fld: FieldSpec, grid: GridSpec,
                 fd_step: float) -> np.ndarray:
    spacing = _grid_reference(domain, fld) / grid.bulk_divisor
    if domain.kind is DomainKind.DISC:
        lo, hi = -domain.radius_out, domain.radius_out
    else:
        xs = [h.center.real for h in domain.holes] + [b.center.real for b in fld.bumps]
        ys = [h.center.imag for h in domain.holes] + [b.center.imag for b in fld.bumps]
        ext = [h.radius for h in domain.holes] + [b.support_radius for b in fld.bumps]
        if not xs:
            xs, ys, ext = [0.0], [0.0], [1.0]
        m = max(ext) + 1.0
        lo, hi = min(min(xs), min(ys)) - m, max(max(xs), max(ys)) + m
    n = int((hi - lo) / spacing) + 1
    while n * n > grid.max_bulk_points:
        spacing *= 2.0
        n = int((hi - lo) / spacing) + 1
    ax = lo + spacing * np.arange(n)
    # the n x n lattice in blocks of rows, masked block by block; the kept
    # points come out in the order of the whole lattice
    kept = []
    block = max(1, _CHUNK_POINTS // n)
    for row in range(0, n, block):
        zz = (ax[None, :] + 1j * ax[row:row + block, None]).ravel()
        keep = np.ones(zz.shape, dtype=bool)
        if domain.kind is DomainKind.DISC:
            keep &= np.abs(zz) < domain.radius_out - 2 * fd_step
        for h in domain.holes:
            keep &= np.abs(zz - h.center) > h.radius
        for b in fld.bumps:
            if b.profile is Profile.UNIFORM_DISC:
                # the density jumps at the support edge; skip the stencil-wide ring
                keep &= np.abs(np.abs(zz - b.center) - b.support_radius) > 3 * fd_step
        kept.append(zz[keep])
    return np.concatenate(kept)


# the fourth-order central difference along a step s is
# (-u(2s) + 8u(s) - 8u(-s) + u(-2s)) / 12|s|: (multiple of s, weight) per term
_STENCIL = ((2, -1), (1, 8), (-1, -8), (-2, 1))


def _central_difference(components_at, z: np.ndarray, shift: complex) -> List[np.ndarray]:
    """Every component's fourth-order central difference along the complex step ``shift``."""
    partial = None
    for multiple, weight in _STENCIL:
        values = components_at(z + multiple * shift)
        if partial is None:
            partial = [weight * u for u in values]
        else:
            for i, u in enumerate(values):
                partial[i] += weight * u
    return [p / (12 * abs(shift)) for p in partial]


def _component_residual(ux, uy, u0, av, up: bool) -> np.ndarray:
    """|-2i dbar u+ - a u+| (up) or |-2i d u- - conj(a) u-| (down) from the
    component's x and y derivatives ``ux``, ``uy`` and its value ``u0``."""
    if up:
        return np.abs(-2j * 0.5 * (ux + 1j * uy) - av * u0)
    return np.abs(-2j * 0.5 * (ux - 1j * uy) - np.conj(av) * u0)


def _residual_chunks(components_at, ups: Sequence[bool], a, zs: np.ndarray, step: float,
                     weight=None, starts: Optional[range] = None):
    """The one walk of the residual oracle over the points, in chunks of ``_CHUNK_POINTS``.

    ``components_at(z)`` gives the components of one or more spinors at z,
    spinor after spinor, and component i obeys the spin-up equation iff
    ``ups[i % len(ups)]``.  Yields ``(s, lo, residual, modulus)``: spinor s's
    residual at each point of the chunk that starts at ``zs[lo]`` (the
    ``np.maximum`` over its components, so a NaN wins), and its largest
    modulus there.  Each chunk takes one ``components_at`` call per stencil
    shift.  ``starts`` walks only the chunks that start there (default: all).
    """
    width = len(ups)
    for lo in range(0, zs.size, _CHUNK_POINTS) if starts is None else starts:
        z = zs[lo:lo + _CHUNK_POINTS]
        ux, uy = (_central_difference(components_at, z, shift) for shift in (step, 1j * step))
        av = a(z)
        if weight is not None:
            w_res, w_mod = weight(z)
        for i, (dx, dy, u0) in enumerate(zip(ux, uy, components_at(z))):
            r_i, u_i = _component_residual(dx, dy, u0, av, ups[i % width]), np.abs(u0)
            if i % width == 0:
                r, u_abs = r_i, u_i
            else:
                r, u_abs = np.maximum(r, r_i), np.maximum(u_abs, u_i)
            if i % width == width - 1:
                if weight is not None:
                    r, u_abs = r * w_res, u_abs * w_mod
                yield i // width, lo, r, np.max(u_abs)
        del ux, uy  # before the next chunk's stencil passes, not after them


def _worse(p: Tuple[np.float64, int], q: Tuple[np.float64, int]) -> Tuple[np.float64, int]:
    """Of two (residual, point index) pairs, the point ``np.argmax`` over both
    would pick: a NaN residual, else the larger residual, else the smaller index."""
    return min(p, q, key=lambda point: (0, 0.0, point[1]) if math.isnan(point[0])
               else (1, -point[0], point[1]))


def _worker_count(chunks: int) -> int:
    """Processes that share a walk of ``chunks`` whole chunks: one per CPU
    this process may run on, at most one per whole chunk (a fork costs about
    as much as a partial chunk's walk), and this one alone unless a fork is
    safe.  It is safe on Linux while this process runs a single OS thread; a
    child forked beside another thread (a BLAS pool, a Python thread) would
    inherit every lock that thread holds."""
    if chunks < 2 or sys.platform != "linux" or len(os.listdir("/proc/self/task")) > 1:
        return 1
    return min(chunks, len(os.sched_getaffinity(0)))


def _send_and_exit(walk, share: range, write: int) -> None:
    """In a forked child: pickle ``walk(share)``, or the exception it raised,
    down the pipe ``write`` and end the process with ``os._exit``, so no exit
    handler, stdio flush or finalizer inherited from the parent runs."""
    import pickle

    try:
        try:
            result = (walk(share), None)
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            result = (None, exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _in_shares(walk, starts: range, workers: int) -> list:
    """``walk(starts)`` for a ``walk`` that returns one list entry per chunk,
    computed in ``workers`` contiguous shares of ``starts``.

    This process walks the first share (no share is larger) and forks a
    child for each other one; a share no child could be forked for is walked
    here after the children's.  The shares' lists are joined in share order.
    A child's exception is re-raised here with its type and message, and the
    first share in order that fails decides it, as the first failing chunk
    does in one walk.  Every child is reaped before this returns or raises,
    and killed first when its result is no longer wanted.
    """
    if workers == 1:
        return walk(starts)
    import pickle  # only a forking walk loads these, not the table commands
    import signal

    # the first len(starts) % workers shares take one chunk more; a child
    # pays for its fork before it starts walking
    edges = [-(-len(starts) * i // workers) for i in range(workers + 1)]
    shares = [starts[lo:hi] for lo, hi in zip(edges, edges[1:])]
    children = []  # (pid, read end of its result pipe), in share order
    received = 0
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: walk the rest here
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _send_and_exit(walk, share, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        out = walk(shares[0])
        for pid, pipe in children:
            data = pipe.read()
            received += 1
            if not data:
                raise ChildProcessError(f"residual worker {pid} ended without a result")
            rows, exc = pickle.loads(data)
            if exc is not None:
                raise exc
            out += rows
        for share in shares[1 + len(children):]:
            out += walk(share)
        return out
    finally:
        for pid, _ in children[received:]:
            os.kill(pid, signal.SIGKILL)
        for pid, pipe in children:
            pipe.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored here
                pass


def _conformal_weights(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """W^{-3/2} on the residual and W^{-1/2} on the modulus of a sphere's
    flat-metric components, at z on the projected disc."""
    w = conformal.conformal_factor(z)
    return w ** (-1.5), w ** (-0.5)


def pde_residuals(components_at, ups: Sequence[bool], a, zs: np.ndarray, step: float,
                  tol_residual: float, weight=None) -> List[Tuple[float, float]]:
    """Each spinor's largest |D_a u| relative to its size, and its step-halving ratio.

    The spinors and their layout are those of :func:`_residual_chunks`; ``a``
    evaluates the vector potential, and ``weight(z)``, when given, returns
    the factors the residual and the modulus take at z (the sphere's W^{-3/2}
    and W^{-1/2}).  One walk at ``step`` keeps each spinor's worst point (the
    one ``np.argmax`` over its whole row would pick, so a NaN is the worst)
    and its largest modulus, in memory that does not grow with ``zs``; one
    more walk evaluates every spinor's worst point at ``step / 2``.  The first
    walk is split into shares of chunks (:func:`_in_shares`), each reduced
    to one worst point and modulus per chunk and spinor, and merged here in
    chunk order, so the result does not depend on the split.  Both
    residuals are divided by the modulus in numpy float64.  GridTooCoarse is
    raised for the first spinor, in order, whose two residuals differ by more
    than ten tolerances (no convergence).
    """
    if not zs.size:
        raise ValueError("no point to check the Dirac residual at: "
                         "the finite-difference step leaves none inside the domain")

    def chunk_worst(share: range) -> List[Tuple[int, np.float64, int, np.float64]]:
        """(spinor, residual, point index, modulus) at each chunk's worst point."""
        out = []
        for s, lo, r, modulus in _residual_chunks(components_at, ups, a, zs, step, weight,
                                                  share):
            k = int(np.argmax(r))
            out.append((s, r[k], lo + k, modulus))
        return out

    worst: List[Tuple[np.float64, int]] = []
    scales: List[np.float64] = []
    for s, value, idx, modulus in _in_shares(chunk_worst, range(0, zs.size, _CHUNK_POINTS),
                                             _worker_count(zs.size // _CHUNK_POINTS)):
        if s == len(worst):  # the first chunk
            worst.append((value, idx))
            scales.append(modulus)
        else:
            worst[s] = _worse(worst[s], (value, idx))
            scales[s] = np.maximum(scales[s], modulus)
    # point s of the half-step walk is spinor s's worst point
    halves = [None] * len(worst)
    points = zs[[idx for _, idx in worst]]
    for s, lo, r, _ in _residual_chunks(components_at, ups, a, points, step / 2, weight):
        if lo <= s < lo + r.size:
            halves[s] = r[s - lo]
    out = []
    for (value, _), half, scale in zip(worst, halves, scales):
        residual, residual_half = float(value / scale), float(half / scale)
        if abs(residual - residual_half) > 10.0 * tol_residual:
            raise GridTooCoarse(
                f"residual {residual:.3e} vs {residual_half:.3e} under step halving"
            )
        out.append((residual, residual / residual_half if residual_half > 0 else math.inf))
    return out


def boundary_spectra(domain: DomainSpec, fld: FieldSpec) -> Dict[str, BoundarySpectrum]:
    """Boundary spectra keyed by 'hole<j>' and (bounded domains) 'outer'."""
    dom, f = conformal.flat_problem(domain, fld)
    out: Dict[str, BoundarySpectrum] = {}
    for j, hole in enumerate(dom.holes):
        out[f"hole{j}"] = BoundarySpectrum(
            boundary=j, radius=hole.radius, flux_through=f.normalized_hole_fluxes[j].value,
            q=f.q_shift, kernel_choice=f.kernel_choice,
        )
    if dom.kind is DomainKind.DISC:
        out["outer"] = BoundarySpectrum(
            boundary=OUTER, radius=dom.radius_out,
            flux_through=f.total_flux,
            q=f.q_shift, kernel_choice=f.kernel_choice,
        )
    return out


def _residual_points(dom: DomainSpec, f: FieldSpec, grid: GridSpec,
                     fd: float) -> np.ndarray:
    """Polar annuli around the holes and inside the outer circle, then the bulk grid."""
    point_sets: List[np.ndarray] = []
    for j, hole in enumerate(dom.holes):
        probe = annulus_probe(dom, j, support_radii_from(f, hole.center))
        point_sets.append(_polar_points(hole.center, probe, grid.radial, grid.angular))
    if dom.kind is DomainKind.DISC:
        probe = annulus_probe(dom, OUTER, support_extents_from(f, 0.0))
        inset = Annulus(probe.inner, probe.outer - 2 * fd)
        if inset.outer > inset.inner:
            point_sets.append(_polar_points(0.0, inset, grid.radial, grid.angular))
    point_sets.append(_bulk_points(dom, f, grid, fd))
    return np.concatenate(point_sets)


def check_tolerances(tol_residual: float, tol_leakage: float) -> None:
    """Raise ValueError unless both verification tolerances are positive and finite."""
    for name, value in (("residual", tol_residual), ("leakage", tol_leakage)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} tolerance must be positive and finite, got {value!r}")


def verify_modes(
    modes: Sequence[ZeroMode],
    domain: DomainSpec,
    fld: FieldSpec,
    potential: PotentialField,
    grid: GridSpec = GridSpec(),
    tol_residual: float = 1e-6,
    tol_leakage: float = 1e-6,
) -> List[VerificationReport]:
    """Independent check of candidate modes against (domain, field), in one pass.

    The modes must share chirality and potential, as the modes of one basis
    do: e^{+-h}, the vector potential and the boundary data are evaluated
    once for all of them, and each mode applies only its own polynomial.
    The modes are evaluated with the *passed* potential, so a candidate can
    be re-verified against a perturbed field.  Boundary samples are
    normalized to unit root-mean-square on each circle before the Fourier
    projection, so the reported leakage is the weighted fraction of the trace
    sitting on forbidden indices and the absolute tolerance is scale-free.
    On a hole circle that leakage is also what checks that the analytic
    factor g = e^{-+h} u continues into the hole.  Reports follow the order
    of ``modes``, and GridTooCoarse is raised for the first mode in that
    order whose worst residual does not converge under step halving.
    """
    check_tolerances(tol_residual, tol_leakage)
    if not modes:
        raise ValueError("verify_modes needs at least one mode")
    first = modes[0]
    if any(m.chirality is not first.chirality or m.potential is not first.potential
           for m in modes):
        raise ValueError("verified modes must share chirality and potential")
    chirality, dressed = first.chirality, first.w_dressed
    dom, f = conformal.flat_problem(domain, fld)

    fd = grid.fd_step if grid.fd_step is not None \
        else _fd_scale(dom, f) * grid.fd_step_factor
    up = chirality is Chirality.UP
    basis_at = _basis_at(modes, chirality, potential)

    # --- PDE residual over polar annuli plus the bulk grid.  Components are
    # flat-metric: the conformal factor enters only as the weights.
    weight = _conformal_weights if dressed else None
    zs = _residual_points(dom, f, grid, fd)
    pde = pde_residuals(basis_at, (up,), potential.eval_a, zs, fd, tol_residual, weight)

    # --- boundary trace leakage; e^{+-h} and the phase once per circle
    phis = np.linspace(0.0, 2.0 * math.pi, grid.n_boundary_samples, endpoint=False)
    trace_leakages: List[Dict[str, float]] = [{} for _ in modes]
    for label, spec in boundary_spectra(dom, f).items():
        center = 0.0 if spec.is_outer else dom.holes[spec.boundary].center
        exponent = potential.boundary_phase_exponent(center, spec.radius, phis)
        circle = center + spec.radius * np.exp(1j * phis)
        for out, samples in zip(trace_leakages, basis_at(circle)):
            samples = samples / math.sqrt(float(np.mean(np.abs(samples) ** 2)))
            out[label] = leakage(trace_from_samples(spec, phis, samples, exponent),
                                 spec, chirality)

    # --- square integrability at infinity (plane only): the degree-exponent
    # inequality plus the decay of |u| from the decay radius to twice it
    integrable: List[Optional[bool]] = [None] * len(modes)
    if dom.kind is DomainKind.PLANE:
        x = flux_over_2pi(f.total_flux)
        angles = np.exp(1j * (np.linspace(0, 2 * math.pi, 8, endpoint=False) + 0.1))
        far, near = (basis_at(r * angles) for r in (2 * grid.decay_radius, grid.decay_radius))
        for m, (mode, u_far, u_near) in enumerate(zip(modes, far, near)):
            exact_ok = (mode.degree - x if up else mode.degree + x) < -1
            integrable[m] = bool(exact_ok and np.max(np.abs(u_far) / np.abs(u_near)) < 0.55)

    reports = []
    for (pde_residual, ratio), trace_leakage, ok in zip(pde, trace_leakages, integrable):
        passed = (
            pde_residual < tol_residual
            and all(v < tol_leakage for v in trace_leakage.values())
            and (ok is None or ok)
        )
        reports.append(VerificationReport(
            pde_residual=pde_residual,
            trace_leakage=trace_leakage,
            integrability_exponent_ok=ok,
            richardson_factor=ratio,
            passed=passed,
            tolerances={"pde_residual": tol_residual, "leakage": tol_leakage},
        ))
    return reports


def verify_mode(
    mode: ZeroMode,
    domain: DomainSpec,
    fld: FieldSpec,
    potential: PotentialField,
    grid: GridSpec = GridSpec(),
    tol_residual: float = 1e-6,
    tol_leakage: float = 1e-6,
) -> VerificationReport:
    """Independent check of one candidate mode; see :func:`verify_modes`."""
    return verify_modes([mode], domain, fld, potential, grid, tol_residual, tol_leakage)[0]
