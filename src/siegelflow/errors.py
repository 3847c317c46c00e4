"""Exception types raised by the numerical kernels.

Every guard corresponds to a contract violation that is detectable at run
time: loss of group structure through round-off, an integral that stopped
being Gaussian, and so on.
"""


class SiegelFlowError(Exception):
    """Base class for all library errors."""


class SpRelationViolatedError(SiegelFlowError):
    """Block relations of a symplectic matrix exceed tolerance."""


class NonUnitaryError(SiegelFlowError):
    """A matrix that must be unitary failed the residual check."""


class BranchDiscontinuityError(SiegelFlowError):
    """A sampled square-root continuation step would jump the argument by >= pi/2.

    Raised only by ``sympl.continue_sqrt_phase``, the sampled reference for
    the closed-form branches; the library's own branches never raise it.
    """


class NotIntegrableError(SiegelFlowError):
    """A combined Gaussian quadratic form lost negativity of its real part."""


class NonTransverseError(SiegelFlowError):
    """Two Lagrangian subspaces are not transverse."""


class PolarizationMismatchError(SiegelFlowError):
    """Operands live over different polarizations."""


class GridTooCoarseError(SiegelFlowError):
    """Doubling the quadrature grid moved the result by more than the tolerance."""


class TruncationOverflowError(SiegelFlowError):
    """Amplitude leaked into the top of a truncated Fock basis."""


class NoBoundaryLimitError(SiegelFlowError):
    """The geodesic has a vanishing rate and no Lagrangian boundary limit."""
