"""Exception types; the CLI maps them to exit codes."""


class MedcurveError(Exception):
    """Base class for all library errors."""


class ParseError(MedcurveError):
    """Malformed input file. Carries the file path and 1-based line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where += ": "
        super().__init__(where + message)


class GridMismatchError(MedcurveError):
    """Curves do not share a time grid."""


class LinearizationError(MedcurveError):
    """The derivative operator is singular or unusable. Carries a condition estimate."""

    def __init__(self, message: str, condition: float | None = None):
        self.condition = condition
        super().__init__(message)


class DesignError(MedcurveError):
    """Invalid sampling design or design/population mismatch."""


class EstimationError(MedcurveError):
    """Estimator cannot be evaluated on the drawn sample."""
