"""Exception hierarchy shared by all solver modules."""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SolverError):
    """Malformed specification: bad expression, bad config file, bad kind."""


class DomainError(SolverError):
    """Argument outside the mathematical domain of an operation."""


class PatternError(SolverError):
    """The weight does not have a usable sign structure (not indefinite,
    or sign changes unresolvable at the requested tolerance)."""


class HypothesisError(SolverError):
    """A hypothesis of the existence theory fails for the given data
    (e.g. the slope of g at zero is too large, or the slope at infinity
    is below the eigenvalue threshold)."""


class BracketingError(SolverError):
    """Root bracketing failed (no sign change up to the search cap)."""


class DivergenceError(SolverError):
    """Integration aborted because the trajectory left the guard region.

    Attributes
    ----------
    last_time : float
        Time of the reported state: the end of the step that left the
        guard region, or the last accepted step when the integration
        failed.  In a flow of many rows, the real time of ``row``.
    last_state : tuple
        State at ``last_time``.
    row : int
        In a flow of many rows, the caller's index of the row the flow
        left out; the other rows were flowed without it.
    """

    def __init__(self, message, last_time=None, last_state=None, row=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state
        self.row = row


class DegreeUndefinedError(SolverError):
    """The displacement map (nearly) vanishes on the curve, so the winding
    number is not defined."""


class UnclassifiableError(SolverError):
    """A solution sits too close to a classification threshold to be
    assigned a binary code."""
