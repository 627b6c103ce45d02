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
import numbers
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def count_zero_modes(problem: conformal.Problem) -> ZeroModeCount:
    """Number of zero modes and their common chirality."""
    x = flux_over_2pi(problem.field.total_flux)
    if problem.domain.kind is DomainKind.PLANE:
        n = max(0, floor_strict(abs(x)))
        signed = n if x > 0 else -n
    elif problem.field.kernel_choice is KernelChoice.ALTERNATE:
        signed = -floor_strict(threshold_sum(-x, HALF))
    else:
        # disc with shift q, and the sphere via its semi-total flux (q = 0 there)
        signed = floor_strict(threshold_sum(x, problem.field.q_shift, HALF))
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
        return self.potential.problem.dressed

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
    """Monomial basis of ``potential.problem``'s zero modes (EmptyBasis if none); ``domain``
    and ``fld`` are not read, and stay so callers that pass them keep working."""
    counted = count_zero_modes(potential.problem)
    if counted.count == 0:
        raise EmptyBasis("the configuration has no zero modes")
    return ZeroModeBasis(
        chirality=counted.chirality,
        degrees=list(range(counted.count)),
        potential=potential,
    )


def _powers(var: np.ndarray, lo: int, hi: int, first: np.ndarray) -> Dict[int, np.ndarray]:
    """first * var^n for lo <= n <= hi (and n = 0, 1), one multiply per degree.

    Negative degrees are built the same way from 1/var.
    """
    powers = {0: first, 1: first * var}
    for n in range(2, hi + 1):
        powers[n] = powers[n - 1] * var
    if lo < 0:
        inverse = 1 / var
        for n in range(-1, lo - 1, -1):
            powers[n] = powers[n + 1] * inverse
    return powers


def _combine(coefficients: Dict[int, complex], powers: Dict[int, np.ndarray]) -> np.ndarray:
    """sum_n c_n powers[n] in ascending degree, as a new array; a unit
    coefficient takes no multiply."""
    first, *rest = sorted(coefficients)
    c = coefficients[first]
    out = powers[first].copy() if c == 1 else c * powers[first]
    for n in rest:
        out += powers[n] if coefficients[n] == 1 else coefficients[n] * powers[n]
    return out


def _basis_at(modes: Sequence["ZeroMode"], chirality, potential):
    """The function (z, plan) -> the flat (undressed) value of every mode at
    z, in order, each a new array; ``plan`` (default None) is passed to
    ``potential.eval_h``.

    One e^{+-h} and one walk up its products with the powers of z (or
    conj z) serve all the modes.
    """
    lo = min(min(mode.coefficients) for mode in modes)
    top = max(mode.degree for mode in modes)
    # a power that one mode alone reads, with coefficient 1 and nothing
    # else, is that mode's value as it stands (a basis's modes all are)
    readers = Counter(n for mode in modes for n in mode.coefficients)
    alone = [mode.degree if mode.coefficients == {mode.degree: 1}
             and readers[mode.degree] == 1 else None for mode in modes]

    def at(z, plan=None):
        if chirality is Chirality.UP:
            h, var = potential.eval_h(z, plan), z
        else:
            h, var = -potential.eval_h(z, plan), np.conj(z)
        # e^{+-h} made complex once, so no product with it casts
        powers = _powers(var, lo, top, np.exp(h).astype(complex))
        for mode, n in zip(modes, alone):
            yield powers[n] if n is not None else _combine(mode.coefficients, powers)

    return at


# ----------------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------------


# points per annulus (radial * angular), in the bulk lattice and per circle,
# so every grid does a bounded amount of work
MAX_ANNULUS_POINTS, MAX_BULK_POINTS, MAX_BOUNDARY_SAMPLES = 2 ** 22, 2 ** 22, 2 ** 20


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
            # True > 0 would run as 1, and only fd_step may be None (the factor rule's step)
            if isinstance(value, bool) or not isinstance(value, (numbers.Real, type(None))) \
                    or value is None and name != "fd_step":
                raise ValueError(f"grid {name} must be a number, got {value!r}")
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"grid {name} must be positive and finite, got {value!r}")
        if self.radial * self.angular > MAX_ANNULUS_POINTS:
            raise ValueError(f"grid radial * angular is {self.radial * self.angular} points "
                             f"per annulus; at most {MAX_ANNULUS_POINTS} are allowed")
        if self.max_bulk_points > MAX_BULK_POINTS:
            raise ValueError(f"grid max_bulk_points is {self.max_bulk_points} points; "
                             f"at most {MAX_BULK_POINTS} are allowed")
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


# points per chunk of the residual pass, a block of annulus rows (a longer row
# split by angle) or of bulk lattice rows (one row at least): a chunk's values
# at one stencil shift and three partial arrays per component take a few MB
_CHUNK_POINTS = 16384

# A chunk of residual points: (size, make), where make() returns new points,
# at most ``size`` of them (the points a block's rows hold before masking),
# and ``size`` is at most ``_CHUNK_POINTS`` unless one row holds more.
Chunk = Tuple[int, Callable[[], "np.ndarray"]]


def _array_chunks(zs: np.ndarray) -> List[Chunk]:
    """The points of ``zs``, in order, in chunks of ``_CHUNK_POINTS``."""
    return [(min(_CHUNK_POINTS, zs.size - lo), lambda lo=lo: zs[lo:lo + _CHUNK_POINTS])
            for lo in range(0, zs.size, _CHUNK_POINTS)]


def _polar_chunks(center: complex, annulus: Annulus, radial: int, angular: int) -> List[Chunk]:
    """The polar grid of ``annulus`` around ``center``, row by row (radius
    by radius, each row in angle order), in blocks of whole rows; a row
    longer than a chunk is split by angle."""
    rows, cols = max(1, _CHUNK_POINTS // angular), min(angular, _CHUNK_POINTS)
    step = 2.0 * math.pi / angular

    def chunk(r0: int, r1: int, c0: int, c1: int) -> Chunk:
        def make() -> np.ndarray:
            # the fractions first, so the radii stay in the float range with the annulus
            radii = annulus.inner + (annulus.outer - annulus.inner) \
                * ((np.arange(r0, r1) + 0.5) / radial)
            angles = np.arange(c0, c1, dtype=float) * step  # np.linspace's, without the end
            return (center + radii[:, None] * np.exp(1j * angles[None, :])).ravel()
        return (r1 - r0) * (c1 - c0), make

    return [chunk(r0, min(r0 + rows, radial), c0, min(c0 + cols, angular))
            for r0 in range(0, radial, rows) for c0 in range(0, angular, cols)]


def _window(ax: np.ndarray, center: float, reach: float, spacing: float) -> slice:
    """The entries of the sorted axis ``ax`` within ``reach`` plus one
    ``spacing`` of ``center``: a mask with that reach keeps every point
    outside, since |z - c| >= max(|x - c.x|, |y - c.y|), and the spacing
    absorbs the rounding of both sides."""
    lo, hi = np.searchsorted(ax, (center - reach - spacing, center + reach + spacing))
    return slice(int(lo), int(hi))


def _bulk_chunks(domain: DomainSpec, fld: FieldSpec, grid: GridSpec,
                 fd_step: float) -> List[Chunk]:
    """The kept points of the bulk lattice, one chunk per block of its rows;
    each block is built and masked only when its chunk is made, so no
    n x n array is allocated, and the kept points come out in the order of
    the whole lattice."""
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
    # each cut: its centre, the reach of what it removes, and the test of
    # which points it keeps; a hole removes its disc and a uniform bump, whose
    # density jumps at the support edge, the stencil-wide ring there
    cuts = [(h.center, h.radius, lambda d, r=h.radius: d > r) for h in domain.holes]
    cuts += [(b.center, b.support_radius + 3 * fd_step,
              lambda d, r=b.support_radius: np.abs(d - r) > 3 * fd_step)
             for b in fld.bumps if b.profile is Profile.UNIFORM_DISC]
    windows = [(c, _window(ax, c.real, reach, spacing), _window(ax, c.imag, reach, spacing),
                keeps) for c, reach, keeps in cuts]
    block = max(1, _CHUNK_POINTS // n)

    def chunk(row: int) -> Chunk:
        def make() -> np.ndarray:
            rows = ax[row:row + block]
            zz = np.empty((rows.size, n), dtype=complex)  # x + 1j * y, bit for bit
            zz.real = ax
            zz.imag = rows[:, None]
            if domain.kind is DomainKind.DISC:
                keep = np.abs(zz) < domain.radius_out - 2 * fd_step
            else:
                keep = np.ones(zz.shape, dtype=bool)
            for c, cols, rs, keeps in windows:  # the block's rows in the cut's window
                r0, r1 = max(rs.start - row, 0), min(rs.stop - row, rows.size)
                if r0 < r1:
                    keep[r0:r1, cols] &= keeps(np.abs(zz[r0:r1, cols] - c))
            return zz[keep]
        return min(block, n - row) * n, make

    return [chunk(row) for row in range(0, n, block)]


def _stencil(step: float) -> List[complex]:
    """The offsets of the residual oracle's stencil images z + offset, in the
    order it evaluates them: 2s, s, -s and -2s for s = step, then for
    s = i step, then 0 for z itself."""
    return [offset for shift in (step, 1j * step)
            for offset in (2 * shift, shift, -shift, -(2 * shift))] + [0]


def _central_difference(at, shift: complex) -> List[np.ndarray]:
    """Every component's fourth-order central difference along the complex step ``shift``,

        (-u(2s) + 8 u(s) - 8 u(-s) + u(-2s)) / 12|s|,

    summed term by term in that order, in place in the arrays ``at(offset)``
    returns, the components at z + offset, for offset 2s; the unit weights
    take no multiply."""
    partial = list(at(2 * shift))
    for p in partial:
        p *= -1.0
    for p, u in zip(partial, at(shift)):
        u *= 8.0
        p += u
    for p, u in zip(partial, at(-shift)):
        u *= 8.0
        p -= u
    for p, u in zip(partial, at(-(2 * shift))):
        p += u
    scale = 1.0 / (12 * abs(shift))  # the factor numpy's complex-by-real division applies
    for p in partial:
        p *= scale
    return partial


def _component_residual(ux, uy, u0, av, up: bool) -> np.ndarray:
    """|-2i dbar u+ - a u+| (up) or |-2i d u- - conj(a) u-| (down), that is
    |-i u_x + u_y - a u+| or |-i u_x - u_y - conj(a) u-|, from the component's
    x and y derivatives ``ux``, ``uy`` and its value ``u0``; the sum is formed
    in ``ux``.  ``av`` is a, or conj(a) for a spin-down component."""
    ux *= -1j
    if up:
        ux += uy
    else:
        ux -= uy
    ux -= np.multiply(av, u0, out=uy)
    return np.abs(ux)


def _residual_chunks(components_at, ups: Sequence[bool], a, chunks: Sequence[Chunk],
                     step: float, weight=None, share: Optional[range] = None,
                     interior_plan=None):
    """The one walk of the residual oracle over the points, chunk by chunk.

    ``components_at(z)`` gives the components of one or more spinors at z,
    spinor after spinor, and component i obeys the spin-up equation iff
    ``ups[i % len(ups)]``.  Yields ``(s, c, z, residual, modulus)``: spinor
    s's residual at each point z of chunk c (the ``np.maximum`` over its
    components, so a NaN wins), and its largest modulus there.  Each chunk
    is made when it is reached and takes one ``components_at`` call per
    stencil shift; a chunk with no point yields nothing.  ``share`` walks
    only the chunks of those indices (default: all).  ``interior_plan(z,
    offsets)``, when given, is called once per chunk with the offsets of
    :func:`_stencil`, and ``components_at`` is then called as
    ``components_at(z + offset, plan[offset])`` with its result ``plan``.

    Every call of ``components_at`` must return new arrays, which nothing
    else holds: the stencil sums and the residuals are formed in them.
    """
    width = len(ups)
    for c in range(len(chunks)) if share is None else share:
        z = chunks[c][1]()
        if not z.size:
            continue
        plan = interior_plan(z, _stencil(step)) if interior_plan is not None else None

        def at(offset):
            image = z + offset if offset else z
            return components_at(image) if plan is None else components_at(image, plan[offset])

        ux, uy = (_central_difference(at, shift) for shift in (step, 1j * step))
        av = a(z)
        av_down = np.conj(av) if not all(ups) else None
        if weight is not None:
            w_res, w_mod = weight(z)
        for i, (dx, dy, u0) in enumerate(zip(ux, uy, at(0))):
            up = ups[i % width]
            r_i = _component_residual(dx, dy, u0, av if up else av_down, up)
            u_i = np.abs(u0)
            if i % width == 0:
                r, u_abs = r_i, u_i
            else:
                r, u_abs = np.maximum(r, r_i, out=r), np.maximum(u_abs, u_i, out=u_abs)
            if i % width == width - 1:
                if weight is not None:
                    r *= w_res
                    u_abs *= w_mod
                yield i // width, c, z, r, np.max(u_abs)
        del ux, uy, plan  # before the next chunk's plan and stencil, not after them


def _worse(p: Sequence, q: Sequence) -> Sequence:
    """Of two (residual, point key, ...) records, the point ``np.argmax`` over
    both would pick: a NaN residual, else the larger residual, else the
    smaller key (the point's (chunk, index), which orders points as the
    whole point set does)."""
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
    """In a forked child: pickle ``walk(share)`` or the exception it raised,
    with the warnings it issued under the inherited filters, down the pipe
    ``write``, and end the process with ``os._exit``, so no exit handler,
    stdio flush or finalizer inherited from the parent runs."""
    import pickle
    import warnings

    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                result = (walk(share), None)
            except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
                result = (None, exc)
        issued = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result + (issued,)))
    finally:
        os._exit(0)


def _in_shares(walk, chunks: range, workers: int) -> list:
    """``walk(chunks)`` for a ``walk`` that returns a list in the order of
    the chunk indices ``chunks``, computed in ``workers`` contiguous shares
    of them.

    This process walks the first share (no share is larger) and forks a
    child for each other one; a share no child could be forked for is walked
    here after the children's.  The shares' lists are joined in share order.
    A child's warnings are issued again here, in share order, before its list
    is joined or its exception re-raised, under the name and registry of the
    module that issued them, so module filters and the "default" action act
    as in one walk.  A child's exception is re-raised here with its type and
    message, and the first share in order that fails decides it, as the
    first failing chunk does in one walk.  Every child is reaped before this
    returns or raises, and killed first when its result is no longer wanted.
    """
    if workers == 1:
        return walk(chunks)
    import pickle  # only a forking walk loads these, not the table commands
    import signal
    import warnings

    # the first len(chunks) % workers shares take one chunk more; a child
    # pays for its fork before it starts walking
    edges = [-(-len(chunks) * i // workers) for i in range(workers + 1)]
    shares = [chunks[lo:hi] for lo, hi in zip(edges, edges[1:])]
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
            rows, exc, issued = pickle.loads(data)
            for message, category, filename, lineno in issued:
                module = next((vars(m) for m in list(sys.modules.values())
                               if getattr(m, "__file__", None) == filename), {})
                warnings.warn_explicit(message, category, filename, lineno, module.get("__name__"),
                                       module.setdefault("__warningregistry__", {}))
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


def _raise_malloc_thresholds() -> None:
    """Allocate and free one 8 MiB block through the C library, so that the
    chunks' arrays come from the heap.

    glibc's malloc maps a block above its mmap threshold (128 KiB at start)
    on its own and unmaps it when it is freed; freeing a mapped block raises
    that threshold to the block's size, and the heap's trim threshold to
    twice it (mallopt(3)).  A chunk's arrays (256 KiB each) would otherwise
    be mapped and unmapped on every use, each page faulted in again: a warm
    one-worker verify of a five-hole sphere (2-CPU Linux, glibc) took 5,400
    minor faults and 15 ms of system time per pass that way, against 2 and
    under 1 ms with this block.  The block is never touched, so it takes no
    resident memory, and tracemalloc does not see it.  Another C library
    ignores it."""
    if sys.platform == "linux":
        import ctypes  # numpy has loaded it already

        libc = ctypes.CDLL(None)
        libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
        libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
        libc.free(libc.malloc(8 << 20))


def pde_residuals(components_at, ups: Sequence[bool], a, chunks: Sequence[Chunk], step: float,
                  tol_residual: float, weight=None,
                  interior_plan=None) -> List[Tuple[float, float]]:
    """Each spinor's largest |D_a u| relative to its size, and its step-halving ratio.

    The spinors and their layout are those of :func:`_residual_chunks`;
    ``chunks`` holds the points, as :data:`Chunk` makers in point order;
    ``a`` evaluates the vector potential, and ``weight(z)``, when given,
    returns the factors the residual and the modulus take at z (the
    sphere's W^{-3/2} and W^{-1/2}); ``interior_plan``, when given, is
    passed to both walks.  One walk at ``step`` keeps each
    spinor's worst point (the one ``np.argmax`` over its whole row would
    pick, so a NaN is the worst), by value, and its largest modulus; one
    more walk evaluates every spinor's worst point at ``step / 2``.  Each
    chunk is made only in the walk that reaches it, so memory grows with the
    chunk size and the spinor count, never with the point count; with no
    multi-MB point array freed before the walk, glibc would map and unmap
    the chunks' arrays on every use, so :func:`_raise_malloc_thresholds`
    keeps them on the heap in a walk of more than one chunk.  The first
    walk is split into shares of chunks (:func:`_in_shares`), each reduced
    to one worst point and modulus per chunk and spinor, and merged here in
    chunk order, so the result does not depend on the split; only whole
    chunks' worth of points earn a worker.  Both residuals are divided by
    the modulus in numpy float64.  GridTooCoarse is raised for the first
    spinor, in order, whose two residuals differ by more than ten
    tolerances (no convergence).
    """
    def chunk_worst(share: range) -> list:
        """(spinor, residual, (chunk, index), point, modulus) at each chunk's worst point."""
        out = []
        for s, c, z, r, modulus in _residual_chunks(components_at, ups, a, chunks, step,
                                                    weight, share, interior_plan):
            k = int(np.argmax(r))
            out.append((s, r[k], (c, k), z[k], modulus))
        return out

    # a walk of one chunk (bm_verify's annulus) keeps its arrays mapped, as
    # before the walk made its own chunks: on the heap they lifted a bm
    # process's peak RSS by 0.3 MB
    if len(chunks) > 1:
        _raise_malloc_thresholds()
    worst: list = []  # (residual, (chunk, index), point) per spinor
    scales: List[np.float64] = []
    whole = sum(size for size, _ in chunks) // _CHUNK_POINTS
    for s, *point, modulus in _in_shares(chunk_worst, range(len(chunks)), _worker_count(whole)):
        if s == len(worst):  # the first chunk with a point
            worst.append(point)
            scales.append(modulus)
        else:
            worst[s] = _worse(worst[s], point)
            scales[s] = np.maximum(scales[s], modulus)
    if not worst:
        raise ValueError("no point to check the Dirac residual at: "
                         "the finite-difference step leaves none inside the domain")
    # point s of the half-step walk is spinor s's worst point
    halves = [None] * len(worst)
    points = np.array([z for _, _, z in worst])
    for s, c, _, r, _ in _residual_chunks(components_at, ups, a, _array_chunks(points),
                                          step / 2, weight, interior_plan=interior_plan):
        lo = c * _CHUNK_POINTS
        if lo <= s < lo + r.size:
            halves[s] = r[s - lo]
    out = []
    for (value, _, _), half, scale in zip(worst, halves, scales):
        residual, residual_half = float(value / scale), float(half / scale)
        if abs(residual - residual_half) > 10.0 * tol_residual:
            raise GridTooCoarse(f"residual {residual:.3e} vs {residual_half:.3e} "
                                f"under step halving from step {step:.3e}")
        out.append((residual, residual / residual_half if residual_half > 0 else math.inf))
    return out


def boundary_spectra(problem: conformal.Problem) -> Dict[str, BoundarySpectrum]:
    """Boundary spectra keyed by 'hole<i>', i the config index of the hole
    (``problem.hole_index``), and (bounded domains) 'outer'."""
    dom, f = problem.domain, problem.field
    out: Dict[str, BoundarySpectrum] = {}
    for j, (i, hole) in enumerate(zip(problem.hole_index, dom.holes)):
        out[f"hole{i}"] = BoundarySpectrum(
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


def _point_chunks(dom: DomainSpec, f: FieldSpec, grid: GridSpec, fd: float) -> List[Chunk]:
    """Polar annuli around the holes and inside the outer circle, then the bulk grid."""
    chunks: List[Chunk] = []
    for j, hole in enumerate(dom.holes):
        probe = annulus_probe(dom, j, support_radii_from(f, hole.center))
        chunks += _polar_chunks(hole.center, probe, grid.radial, grid.angular)
    if dom.kind is DomainKind.DISC:
        probe = annulus_probe(dom, OUTER, support_extents_from(f, 0.0))
        inset = Annulus(probe.inner, probe.outer - 2 * fd)
        if inset.outer > inset.inner:
            chunks += _polar_chunks(0.0, inset, grid.radial, grid.angular)
    return chunks + _bulk_chunks(dom, f, grid, fd)


def check_tolerances(tol_residual: float, tol_leakage: float) -> None:
    """Raise ValueError unless both verification tolerances are positive and finite."""
    for name, value in (("residual", tol_residual), ("leakage", tol_leakage)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} tolerance must be positive and finite, got {value!r}")


def verify_modes(
    modes: Sequence[ZeroMode],
    grid: GridSpec = GridSpec(),
    tol_residual: float = 1e-6,
    tol_leakage: float = 1e-6,
) -> List[VerificationReport]:
    """Independent check of candidate modes against their potential's problem, in one pass.

    The modes must share chirality and potential, as the modes of one basis
    do: e^{+-h}, the vector potential and the boundary data are evaluated
    once for all of them, and each mode applies only its own polynomial.
    A candidate built on a perturbed field's potential is re-verified
    against that field.  Boundary samples are
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
    chirality, potential, problem = first.chirality, first.potential, first.potential.problem
    dom, f = problem.domain, problem.field

    fd = grid.fd_step if grid.fd_step is not None \
        else _fd_scale(dom, f) * grid.fd_step_factor
    up = chirality is Chirality.UP
    basis_at = _basis_at(modes, chirality, potential)

    # --- PDE residual over polar annuli plus the bulk grid.  Components are
    # flat-metric: the conformal factor enters only as the weights.
    weight = _conformal_weights if problem.dressed else None
    pde = pde_residuals(basis_at, (up,), potential.eval_a, _point_chunks(dom, f, grid, fd), fd,
                        tol_residual, weight, potential.interior_plan)

    # --- boundary trace leakage; e^{+-h} and the phase once per circle
    phis = np.linspace(0.0, 2.0 * math.pi, grid.n_boundary_samples, endpoint=False)
    trace_leakages: List[Dict[str, float]] = [{} for _ in modes]
    for label, spec in boundary_spectra(problem).items():
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
    """Independent check of one candidate mode, rebuilt on ``potential``; see
    :func:`verify_modes`.  ``domain`` and ``fld`` are not read; they stay so
    callers that pass them keep working."""
    mode = ZeroMode(mode.chirality, mode.coefficients, potential)
    return verify_modes([mode], grid, tol_residual, tol_leakage)[0]
