"""Zero modes of magnetic Dirac operators with spectral boundary conditions.

Counts, constructs and independently verifies the zero modes on the plane,
a disc, and a sphere with circular holes, together with the eta invariants
and the index of the boundary-corrected problem.
"""

from .aps_boundary import (
    BoundarySpectrum,
    Spin,
    TraceFourier,
    check_norm,
    leakage,
    trace_from_samples,
)
from .berry_mondragon import BMConfig, BMMode, bm_flux_sweep, bm_verify, bm_zero_mode
from .conformal import (
    MobiusCoeffs,
    SphereReduction,
    conformal_factor,
    conformal_ratio,
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
    eta_of_scaled,
    eta_richardson_to_zero,
    eta_series,
    index_formula,
    index_vs_count,
    rho_term,
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
    semi_total_flux,
    total_flux,
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
    sphere_with_holes,
    validate_domain,
)
from .numutil import floor_strict
from .potential import PotentialField
from .zero_modes import (
    Chirality,
    GridSpec,
    VerificationReport,
    ZeroMode,
    ZeroModeBasis,
    ZeroModeCount,
    analytic_extension_check,
    basis_degrees,
    boundary_spectra,
    build_basis,
    count_zero_modes,
    laurent_coefficients,
    verify_mode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
