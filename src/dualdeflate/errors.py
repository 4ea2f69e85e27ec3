"""Exception types shared across the library."""


class DualDeflateError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatchError(DualDeflateError):
    """Operands disagree on variable count or vector length."""


class NotARootError(DualDeflateError):
    """The supplied point does not satisfy the system to within tolerance."""


class NonIsolatedSuspectError(DualDeflateError):
    """Dual-space dimensions kept growing up to the degree cap.

    Either the root is not isolated or the cap is too low; the partial
    per-degree dimension history is attached.
    """

    def __init__(self, message, per_degree_dims=None):
        super().__init__(message)
        self.per_degree_dims = per_degree_dims or []


class AlreadyRegularError(DualDeflateError):
    """Deflation or order prediction requested at a regular point."""


class OrderTooLowError(DualDeflateError):
    """The deflation matrix at the given order has full rank (corank 0)."""


class InconclusivePredictionError(DualDeflateError):
    """Order prediction found no coefficients above the support threshold."""


class DegenerateBasisError(DualDeflateError):
    """A functional basis turned out numerically linearly dependent."""


class ParseError(DualDeflateError):
    """Syntax or semantic error in a system or point file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column
