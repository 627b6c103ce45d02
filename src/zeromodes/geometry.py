"""Base manifolds: plane, disc or (projected) sphere with disjoint circular holes.

A domain is a list of open discs removed from the plane, from a disc of radius
``radius_out`` centred at the origin, or from the stereographic image of a
sphere.  Sphere domains are stored post-projection: the designated
``omitted_hole`` is the hole whose image is the complement of a disc, so its
circle plays the role of the outer boundary of the projected problem
(:func:`projected_disc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .errors import NoClearance

#: sentinel accepted by :func:`annulus_probe` to probe the outer boundary
OUTER = -1


class DomainKind(Enum):
    PLANE = "plane"
    DISC = "disc"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Hole:
    """Open disc removed from the base manifold."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"hole radius must be positive, got {self.radius}")

    def distance_to(self, other: "Hole") -> float:
        """Gap between the two closed discs (negative if they overlap)."""
        return abs(self.center - other.center) - self.radius - other.radius


@dataclass(frozen=True)
class DomainSpec:
    kind: DomainKind
    holes: List[Hole] = field(default_factory=list)
    radius_out: Optional[float] = None
    # sphere only: index of the hole projected to the image complement
    omitted_hole: Optional[int] = None

    def __post_init__(self):
        if self.kind is DomainKind.DISC:
            if self.radius_out is None or not self.radius_out > 0:
                raise ValueError("disc domains need a positive radius_out")
        if self.kind is DomainKind.SPHERE:
            if not self.holes:
                raise ValueError("sphere domains need at least one hole")
            if self.omitted_hole is None:
                object.__setattr__(self, "omitted_hole", len(self.holes) - 1)

    @property
    def n_holes(self) -> int:
        return len(self.holes)


def plane_with_holes(holes: Sequence[Hole]) -> DomainSpec:
    return DomainSpec(DomainKind.PLANE, list(holes))


def disc_with_holes(radius_out: float, holes: Sequence[Hole] = ()) -> DomainSpec:
    return DomainSpec(DomainKind.DISC, list(holes), radius_out=radius_out)


def sphere_with_holes(holes: Sequence[Hole], omitted_hole: Optional[int] = None) -> DomainSpec:
    return DomainSpec(DomainKind.SPHERE, list(holes), omitted_hole=omitted_hole)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: List[str]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Annulus:
    inner: float
    outer: float


def projected_disc(spec: DomainSpec) -> DomainSpec:
    """The disc a sphere domain stands for: the designated hole's circle less
    every other hole.

    This states the sphere's normal form once: ``omitted_hole`` indexes a
    hole, and that hole is the image complement of an origin-centred circle
    (the configuration after rotating it to the projection pole).  Raises
    ValueError otherwise.
    """
    if spec.kind is not DomainKind.SPHERE:
        raise ValueError("projected_disc expects a sphere domain")
    om = spec.omitted_hole
    if not 0 <= om < spec.n_holes:
        raise ValueError(f"omitted hole index {om} out of range")
    outer = spec.holes[om]
    if abs(outer.center) > 1e-12 * max(1.0, outer.radius):
        raise ValueError(
            "the designated hole must be an origin-centred circle "
            "(rotate the sphere data to the projection normal form first)"
        )
    return disc_with_holes(outer.radius, [h for j, h in enumerate(spec.holes) if j != om])


def _checked_domain(spec: DomainSpec) -> Tuple[DomainSpec, List[int]]:
    """The flat domain the checks of ``spec`` run on (a sphere's
    :func:`projected_disc`, else ``spec``) and the index in ``spec`` of each
    of its holes.  Raises ValueError as :func:`projected_disc` does."""
    if spec.kind is not DomainKind.SPHERE:
        return spec, list(range(spec.n_holes))
    return projected_disc(spec), [j for j in range(spec.n_holes) if j != spec.omitted_hole]


def validate_domain(spec: DomainSpec) -> ValidationResult:
    """Check hole disjointness and containment; violations are data, not errors.

    A sphere is checked as its :func:`projected_disc`, and each violation
    names holes by their index in ``spec``.
    """
    try:
        flat, index = _checked_domain(spec)
    except ValueError as exc:
        return ValidationResult(False, [str(exc)])
    bad: List[str] = []
    holes = flat.holes
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            if not holes[i].distance_to(holes[j]) > 0:
                bad.append(f"holes {index[i]},{index[j]} overlap")
    if flat.kind is DomainKind.DISC:
        for i, h in enumerate(holes):
            if not abs(h.center) + h.radius < flat.radius_out:
                bad.append(f"hole {index[i]} not contained")
    return ValidationResult(not bad, bad)


def annulus_probe(
    spec: DomainSpec,
    hole_index: int,
    support_radii: Sequence[float] = (),
) -> Annulus:
    """Largest open annulus around a boundary circle clear of field and holes.

    For a hole, ``support_radii`` are distances from the hole centre at which
    the bulk field begins; other holes and (for discs) the outer boundary are
    accounted for internally.  Pass ``hole_index=OUTER`` on a disc to probe
    inward from the outer boundary, with ``support_radii`` the distances from
    the origin at which obstructions end.
    """
    if hole_index == OUTER:
        if spec.kind is not DomainKind.DISC:
            raise ValueError("outer-boundary probe only applies to disc domains")
        inner = max(
            [abs(h.center) + h.radius for h in spec.holes] + [float(r) for r in support_radii],
            default=0.0,
        )
        if not inner < spec.radius_out:
            raise NoClearance("no clear annulus inside the outer boundary")
        return Annulus(inner, spec.radius_out)

    if not 0 <= hole_index < len(spec.holes):
        raise ValueError(f"hole index {hole_index} out of range")
    hole = spec.holes[hole_index]
    obstructions = [float(r) for r in support_radii]
    for k, other in enumerate(spec.holes):
        if k != hole_index:
            obstructions.append(abs(other.center - hole.center) - other.radius)
    if spec.kind is DomainKind.DISC:
        obstructions.append(spec.radius_out - abs(hole.center))
    outer = min(obstructions, default=float("inf"))
    if not outer > hole.radius:
        raise NoClearance(
            f"no clear annulus around hole {hole_index}: nearest obstruction at {outer}"
        )
    return Annulus(hole.radius, outer)
