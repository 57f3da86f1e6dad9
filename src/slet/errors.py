"""Exception hierarchy shared by the solver stack.

The CLI maps these onto exit codes of solve and table: bad input
(ValueError and parse failures) -> 2, unphysical regimes -> 4, every
other solver failure -> 3; compare exits 3 only when every level fails.
"""


class SletError(Exception):
    """Base class for solver failures.  ``stage`` names the expansion stage
    that raised one (fall_to_center or solve_r0), else None."""

    stage = None


class UnsupportedOrderError(SletError, ValueError):
    """A derivative order outside the supported 0..6 range was requested."""


class PotentialParseError(SletError, ValueError):
    """A potential specification string could not be parsed."""


class UnphysicalRegimeError(SletError):
    """The requested configuration lies outside the method's domain."""


class NonMonotonePointError(UnphysicalRegimeError):
    """V'(r) <= 0 at the probed expansion point."""


class NoHarmonicRegimeError(UnphysicalRegimeError):
    """The squared scaled frequency came out negative at the probed point."""


class UnphysicalCouplingError(UnphysicalRegimeError):
    """Coupling too strong for a real closed-form Coulomb solution."""


class SupercriticalCouplingError(UnphysicalRegimeError):
    """Effective inverse-square attraction below the -1/4 stability bound."""


class ConvergenceError(SletError):
    """An iterative stage failed to converge."""


class BracketingError(ConvergenceError):
    """No sign change found while scanning for a root bracket."""


class WindowError(ConvergenceError):
    """The self-consistency residual kept one sign across the energy
    window, which the message names."""


class LevelIdentificationError(ConvergenceError):
    """Converged eigenvector node count disagrees with the requested level."""


class InternalInconsistencyError(SletError):
    """A quantity violated an identity it satisfies by construction."""


class MultipleRootsWarning(RuntimeWarning):
    """More than one expansion point satisfied the root equation."""


class ResolutionWarning(RuntimeWarning):
    """Radial grid looks too coarse for a returned level's energy."""
