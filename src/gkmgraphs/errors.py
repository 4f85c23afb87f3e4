"""Exception hierarchy shared by all modules."""


class GkmError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(GkmError):
    """Operands have incompatible sizes or variable tables."""


class ParseError(GkmError):
    """A graph file could not be parsed."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class StructuralError(GkmError):
    """A graph violates a structural invariant (valence, opposites, ...)."""


class NoValidConnection(GkmError):
    """Some dart has no congruent partner across an edge."""


class AmbiguousConnection(GkmError):
    """Two candidate partners exist; 3-independence must be failing."""


class NoPartner(GkmError):
    """A dart has no pair partner summing to the residual vector."""


class ClosureFailure(GkmError):
    """Connection closure left the candidate hyperplane dart set."""


class AssumptionOneViolation(GkmError):
    """No unique halfspace pair exists for a hyperplane."""

    def __init__(self, message, check=None):
        super().__init__(message)
        self.check = check


class Oversized(GkmError):
    """A request past a size cap, refused before its work; ``check`` names
    the cap."""

    def __init__(self, message, check):
        super().__init__(message)
        self.check = check


class AssumptionViolation(GkmError):
    """An operation requires assumptions that the graph fails."""

    def __init__(self, message, assumption=None):
        super().__init__(message)
        self.assumption = assumption


class CongruenceFailure(GkmError):
    """A class that should satisfy the congruence relations does not."""


class PurityFailure(GkmError):
    """The hyperplane complex is not pure of the expected dimension."""


class NotShellable(GkmError):
    """Exhaustive search found no shelling order (or ran out of budget)."""


class InconsistentLambda(GkmError):
    """The characteristic covectors do not lift the e_j at a facet point."""


class InexactDivision(GkmError):
    """A division that the theory promises to be exact was not."""
