"""Exception types shared across the package: one class per branch a caller
takes.

Each class's ``exit_code`` is ``mcm``'s one map from error to exit status
(an ``OSError`` exits 1).  Undefined values (h, R/d) are returned as None,
not raised.
"""


class McmError(Exception):
    """Base class for all errors raised by this package; also raised as is
    for bad arguments, shapes, labels and LP data."""

    exit_code = 1


class ParseError(McmError):
    """A file could not be parsed; the message carries line/field context."""


class HardMarginInfeasible(McmError):
    """The hard-margin program is infeasible: the data is not linearly separable."""

    exit_code = 2


class SolverFailure(McmError):
    """The LP solver returned an unusable status for a training problem."""

    exit_code = 3
