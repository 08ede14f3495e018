"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`MFBSDEError`, so
callers can catch one base class.  The CLI maps :class:`InvalidInput`
subclasses to exit code 2 and everything else to exit code 1.
"""

from __future__ import annotations


class MFBSDEError(Exception):
    """Base class for all library errors."""


class InvalidInput(MFBSDEError, ValueError):
    """Bad arguments, malformed configs, incompatible scenario/solver pairs."""


class ParseError(InvalidInput):
    """Syntax or identifier error in a generator expression."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


class EvalDomainError(MFBSDEError, ArithmeticError):
    """Evaluation hit a singularity (division by zero, fractional power of a
    negative base, ...).  Carries the offending sub-expression."""

    def __init__(self, message: str, node_text: str, column: int):
        super().__init__(f"{message} in '{node_text}' (column {column})")
        self.node_text = node_text
        self.column = column


class DimensionError(InvalidInput):
    """Vector-shape mismatch during expression evaluation."""


class RegressionError(MFBSDEError, RuntimeError):
    """Rank-deficient or otherwise unusable regression design."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class StepDivergence(MFBSDEError, RuntimeError):
    """Inner fixed-point iteration of one backward step failed to settle."""

    def __init__(self, message: str, node: int):
        super().__init__(f"{message} (grid node {node})")
        self.node = node


class FixedPointError(MFBSDEError, RuntimeError):
    """Outer iteration of a mean-field solver stopped without converging.

    The partial iteration trace is attached so callers can render a report.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NonContraction(FixedPointError):
    """Successive-iterate distances grew persistently; the fixed-point map is
    (empirically) not a contraction on this window."""


class MaxIterations(FixedPointError):
    """Iteration budget exhausted before the tolerance was met."""


class InfeasibleCertificate(MFBSDEError, ValueError):
    """Constant chain produced a nonpositive radius or a negative discriminant
    (possible only when a caller overrides the window size upward)."""


class WindowTooWide(InvalidInput):
    """Requested solve window exceeds the certified width and the override
    flag is not set."""


class FixtureMissing(MFBSDEError, FileNotFoundError):
    """A pinned reference fixture is absent; carries regeneration advice."""
