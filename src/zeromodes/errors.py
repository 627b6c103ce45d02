"""Exception types shared across the library."""

__all__ = [
    "DomainError", "EmptyBasis", "GridTooCoarse", "NoClearance", "NorthPole", "PolePoint",
    "SingularPoint", "SphereFluxMismatch", "ZeroModesError",
]


class ZeroModesError(Exception):
    """Base class for all library-specific failures."""


class NoClearance(ZeroModesError):
    """No open annulus fits between a boundary circle and the nearest obstruction."""


class SingularPoint(ZeroModesError):
    """Evaluation requested exactly at a delta-flux centre."""


class SphereFluxMismatch(ZeroModesError, ValueError):
    """Sphere field data violate the zero-total-flux constraint (a bad argument)."""


class GridTooCoarse(ZeroModesError):
    """Finite-difference residual did not converge under step halving."""


class EmptyBasis(ZeroModesError):
    """A zero-mode basis was requested for a configuration with count zero."""


class NorthPole(ZeroModesError):
    """Stereographic projection requested at the excluded projection pole."""


class DomainError(ZeroModesError, ValueError):
    """Series evaluation requested outside its analyticity region (a bad argument)."""


class PolePoint(ZeroModesError):
    """Moebius transform or spinor patching evaluated at its pole c*z + d = 0."""
