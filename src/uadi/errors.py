"""Exception types shared by all solver modules."""


class UadiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(UadiError):
    pass


class SingularShiftedMatrix(UadiError):
    """(A + shift*E) is singular, i.e. -shift is a generalized eigenvalue."""


class SpectraOverlap(UadiError):
    """Coefficient spectra of a small Sylvester/Lyapunov equation overlap."""


class NonHermitianRHS(UadiError):
    pass


class EigFailure(UadiError):
    pass


class UnstableShift(UadiError):
    """ADI shift with nonnegative real part."""


class UnpairedComplexShift(UadiError):
    """Complex shifts must come in consecutive conjugate pairs."""


class InnerSolveSingular(UadiError):
    """Low-rank (SMW) capacitance matrix of a Riccati solve is singular."""


class ParseError(UadiError, ValueError):
    """Malformed input: a file, a system spec, a tag or an option value."""


class MissingMatrix(UadiError):
    pass


class SingularE(UadiError):
    pass


class InvalidSize(UadiError):
    pass


class InfeasibleHard(UadiError):
    """A requested equation is infeasible and strict mode forbids skipping."""


class EquationSkipped(UadiError):
    pass


class ExtractionSingular(UadiError):
    """Trailing block of an extraction transform is singular."""


class ZeroResidual(UadiError):
    """Residual factor vanished; iteration converged, no shift needed."""


class NonFiniteShift(UadiError):
    pass


class SingularProjectedE(UadiError):
    pass


class VariantUnavailable(UadiError):
    pass


class RankDeficient(UadiError):
    pass
