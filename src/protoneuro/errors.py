"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: validation problems exit 2, numeric
failures exit 3 and plain I/O errors (builtin OSError) exit 1.
"""


class ProtoneuroError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ProtoneuroError):
    """Invalid parameters, malformed inputs or violated invariants."""


class ParseError(ValidationError):
    """A text input could not be parsed, or a row of it breaks a rule: ``line``
    (put in front of the message) names the line, ``row`` the 0-based row of
    a series ``TimeSeries`` rejects, which the series reader turns into a line."""

    def __init__(self, message, line=None, row=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.row = row


class ShapeError(ValidationError):
    """Array dimensions do not agree."""


class NumericError(ProtoneuroError):
    """A numeric procedure failed (rank deficiency, non-finite state)."""


class RankDeficiencyError(NumericError):
    """Least-squares design matrix is rank deficient.

    ``columns`` names the basis columns that add nothing to the rank of the
    simpler columns kept before them, in basis order.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class NonFiniteStateError(NumericError):
    """A simulation or computation produced NaN or infinity."""
