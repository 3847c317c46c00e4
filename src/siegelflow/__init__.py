"""Parallel transport of Gaussian quantum states over the Siegel upper
half-space, its Bogoliubov-transformation form, and the Segal-Bargmann and
Fourier transforms as boundary limits."""

from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import (
    GridTooCoarseError,
    NoBoundaryLimitError,
    NonFiniteError,
    NonTransverseError,
    NonUnitaryError,
    NotIntegrableError,
    PolarizationMismatchError,
    SiegelFlowError,
    SpRelationViolatedError,
    TruncationOverflowError,
)
from .sections import (
    CorrectedSection,
    GaussianSection,
    bergman_project,
    coherent_state,
    corrected_inner_product,
    difference_norm,
    fock_coefficients,
    fock_state,
    from_fock_coefficients,
    inner_product,
    inner_product_cross_frame,
    norm,
    oracle_inner_product,
    section_from_json,
    section_to_json,
    vacuum,
)
from .siegel import (
    BoundaryPolarization,
    GeodesicSpec,
    complex_structure_of,
    geodesic_between,
    geodesic_boundary_limits,
    geodesic_eval,
    takagi,
)
from .sympl import (
    MetaplecticElement,
    SymplecticMap,
    act_on_siegel,
    compose,
    random_siegel,
    random_symplectic,
    transform_z_coords,
    xi_matrix,
)
from .transforms import (
    ConvergenceReport,
    composition_identities_check,
    fourier,
    fourier_general,
    from_momentum_profile,
    momentum_profile,
    segal_bargmann,
    segal_bargmann_inverse,
    transport_limits,
)
from .transport import (
    bogoliubov_scale,
    metaplectic_act,
    transport_coherent,
    transport_corrected,
    transport_equals_scaled_projection_check,
    transport_kernel_apply,
    transport_ode,
    transport_uncorrected,
)

__version__ = "0.1.0"
