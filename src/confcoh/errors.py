"""Exception types shared across the package."""


class ConfcohError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ConfcohError):
    def __init__(self, message, column=None):
        self.column = column
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


class AxiomFailure(ConfcohError):
    """A spec file's algebra or module fails an axiom that check tests."""


class RepNotValid(ConfcohError):
    """Supplied matrices do not satisfy [rho(a), rho(b)] = rho([a, b])."""


class WrongModuleKind(ConfcohError):
    """Operation requires a free (or scalar) coefficient module."""


class NotACocycle(ConfcohError):
    """Extension or deformation datum is not a cocycle; carries the witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotReducedCocycle(ConfcohError):
    """No one-cochain gamma solves (df) = (del-action of gamma)."""


class NotEquivariant(ConfcohError):
    """Supplied linear map is not a morphism of Lie algebra representations."""


class DegreeZero(ConfcohError):
    """Contraction applied to a 0-cochain."""


class WrongContext(ConfcohError):
    """Operator only defined for a specific algebra/coefficient pairing."""


class UnstableTruncation(ConfcohError):
    """Dimension did not agree across consecutive sweep bounds."""


class UnsupportedComplex(ConfcohError):
    """The engine does not slice this algebra/module/variant combination."""
