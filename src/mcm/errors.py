"""Exception types shared across the package: one class per branch a caller
takes.

``mcm`` maps them to exit codes: ``HardMarginInfeasible`` exits 2,
``SolverFailure`` exits 3, and every other ``McmError`` (with ``OSError``)
exits 1.  Undefined values (h, R/d) are returned as None, not raised.
"""


class McmError(Exception):
    """Base class for all errors raised by this package; also raised as is
    for bad arguments, shapes, labels and LP data."""


class ParseError(McmError):
    """A file could not be parsed; the message carries line/field context."""


class HardMarginInfeasible(McmError):
    """The hard-margin program is infeasible: the data is not linearly separable."""


class SolverFailure(McmError):
    """The LP solver returned an unusable status for a training problem."""
