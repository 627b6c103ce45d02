"""Base manifolds: plane, disc or (projected) sphere with disjoint circular holes.

A domain is a list of open discs removed from the plane, from a disc of radius
``radius_out`` centred at the origin, or from the stereographic image of a
sphere.  Sphere domains are stored post-projection: the designated
``omitted_hole`` is the hole whose image is the complement of a disc, so its
circle plays the role of the outer boundary of the projected problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

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


def validate_domain(spec: DomainSpec) -> ValidationResult:
    """Check hole disjointness and containment; violations are data, not errors."""
    bad: List[str] = []
    holes = spec.holes
    if spec.kind is DomainKind.SPHERE:
        om = spec.omitted_hole
        if om is None or not 0 <= om < len(holes):
            bad.append(f"omitted hole index {om} out of range")
            return ValidationResult(False, bad)
        outer = holes[om]
        inner = [(i, h) for i, h in enumerate(holes) if i != om]
        # projected picture: every other hole strictly inside the omitted circle
        for i, h in inner:
            if not abs(h.center - outer.center) + h.radius < outer.radius:
                bad.append(f"hole {i} not contained in the projected outer circle (hole {om})")
        for a in range(len(inner)):
            for b in range(a + 1, len(inner)):
                ia, ha = inner[a]
                ib, hb = inner[b]
                if not ha.distance_to(hb) > 0:
                    bad.append(f"holes {ia},{ib} overlap")
        return ValidationResult(not bad, bad)

    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            if not holes[i].distance_to(holes[j]) > 0:
                bad.append(f"holes {i},{j} overlap")
    if spec.kind is DomainKind.DISC:
        for i, h in enumerate(holes):
            if not abs(h.center) + h.radius < spec.radius_out:
                bad.append(f"hole {i} not contained")
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
