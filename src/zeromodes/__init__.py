"""Zero modes of magnetic Dirac operators with spectral boundary conditions.

Counts, constructs and independently verifies the zero modes on the plane,
a disc, and a sphere with circular holes, together with the eta invariants
and the index of the boundary-corrected problem.
"""

from .aps_boundary import BoundarySpectrum, Chirality, leakage, trace_from_samples
from .berry_mondragon import BMConfig, BMMode, bm_flux_sweep, bm_verify, bm_zero_mode
from .conformal import (
    MobiusCoeffs,
    Problem,
    conformal_factor,
    conformal_ratio,
    flat_problem,
    mobius_for_point,
    patch_spinor,
    sphere_to_disc,
    stereo_project,
)
from .errors import (
    DomainError,
    EmptyBasis,
    GridTooCoarse,
    NoClearance,
    NorthPole,
    PolePoint,
    SingularPoint,
    SphereFluxMismatch,
    ZeroModesError,
)
from .eta_index import (
    EtaSeriesResult,
    IndexCountReport,
    IndexResult,
    eta_closed,
    eta_richardson_to_zero,
    eta_series,
    index_formula,
    index_vs_count,
)
from .field import (
    FieldSpec,
    KernelChoice,
    NormalizedFlux,
    PiFlux,
    Profile,
    RadialBump,
    eval_B,
    normalize_flux,
    pi_flux,
    validate_field,
)
from .geometry import (
    OUTER,
    Annulus,
    DomainKind,
    DomainSpec,
    Hole,
    ValidationResult,
    annulus_probe,
    disc_with_holes,
    plane_with_holes,
    projected_disc,
    sphere_with_holes,
    validate_domain,
)
from .numutil import floor_strict
from .potential import PotentialField
from .zero_modes import (
    GridSpec,
    VerificationReport,
    ZeroMode,
    ZeroModeBasis,
    ZeroModeCount,
    boundary_spectra,
    build_basis,
    count_zero_modes,
    verify_mode,
    verify_modes,
)

__all__ = [
    # aps_boundary
    "BoundarySpectrum",
    "Chirality",
    "leakage",
    "trace_from_samples",
    # berry_mondragon
    "BMConfig",
    "BMMode",
    "bm_flux_sweep",
    "bm_verify",
    "bm_zero_mode",
    # conformal
    "MobiusCoeffs",
    "Problem",
    "conformal_factor",
    "conformal_ratio",
    "flat_problem",
    "mobius_for_point",
    "patch_spinor",
    "sphere_to_disc",
    "stereo_project",
    # errors
    "DomainError",
    "EmptyBasis",
    "GridTooCoarse",
    "NoClearance",
    "NorthPole",
    "PolePoint",
    "SingularPoint",
    "SphereFluxMismatch",
    "ZeroModesError",
    # eta_index
    "EtaSeriesResult",
    "IndexCountReport",
    "IndexResult",
    "eta_closed",
    "eta_richardson_to_zero",
    "eta_series",
    "index_formula",
    "index_vs_count",
    # field
    "FieldSpec",
    "KernelChoice",
    "NormalizedFlux",
    "PiFlux",
    "Profile",
    "RadialBump",
    "eval_B",
    "normalize_flux",
    "pi_flux",
    "validate_field",
    # geometry
    "OUTER",
    "Annulus",
    "DomainKind",
    "DomainSpec",
    "Hole",
    "ValidationResult",
    "annulus_probe",
    "disc_with_holes",
    "plane_with_holes",
    "projected_disc",
    "sphere_with_holes",
    "validate_domain",
    # numutil
    "floor_strict",
    # potential
    "PotentialField",
    # zero_modes
    "GridSpec",
    "VerificationReport",
    "ZeroMode",
    "ZeroModeBasis",
    "ZeroModeCount",
    "boundary_spectra",
    "build_basis",
    "count_zero_modes",
    "verify_mode",
    "verify_modes",
]
__version__ = "0.1.0"
