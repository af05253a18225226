"""Exception types shared across the package."""


class McmError(Exception):
    """Base class for all errors raised by this package."""


# --- linear programming ---

class MalformedProblem(McmError):
    """LP data is inconsistent (dimension mismatch, non-finite entries)."""


# --- kernels / models ---

class DimensionMismatch(McmError):
    """Vectors or matrices with incompatible shapes were combined."""


class ParseError(McmError):
    """A file could not be parsed; the message carries line/field context."""


class VersionMismatch(McmError):
    """A model file declares an unsupported format version."""


# --- training ---

class SingleClass(McmError):
    """Training data contains only one class; no separating problem exists."""


class HardMarginInfeasible(McmError):
    """The hard-margin program is infeasible: the data is not linearly separable."""


class NotOptimal(McmError):
    """Model extraction was attempted on a non-optimal LP solution."""


class SolverFailure(McmError):
    """The LP solver returned an unusable status for a training problem."""


# --- capacity diagnostics ---

class ZeroWeight(McmError):
    """The weight vector is identically zero; margins are undefined."""


class ZeroVector(McmError):
    """A hyperplane with zero augmented normal was supplied."""


class DegenerateMargin(McmError):
    """A sample lies (numerically) on the hyperplane; the distance ratio blows up."""


# --- datasets / evaluation ---

class RaggedRows(ParseError):
    """Rows of a delimited file do not all have the same number of fields."""


class NonpositiveIndex(ParseError):
    """A sparse-format feature index was zero or negative (indices are 1-based)."""


class UnknownLabel(McmError):
    """A requested class label does not occur in the dataset."""


class TooFewSamples(McmError):
    """Not enough samples for the requested operation (e.g. more folds than rows)."""
