"""Exception types shared across the toolkit.

Every error the library raises deliberately derives from ToolkitError, so
the CLI can map failure classes onto stable exit codes.
"""


class ToolkitError(Exception):
    """Base class for all deliberate errors raised by this package."""


class BadParameter(ToolkitError):
    """An argument is outside the documented domain."""


class SizeCap(ToolkitError):
    """A construction would exceed the dense-matrix element cap."""


class IndexOutOfRange(ToolkitError):
    """An element index does not belong to the ground set."""


class CycleDetected(ToolkitError):
    """Input relation pairs admit a directed cycle; antisymmetry would fail."""


class SizeMismatch(ToolkitError):
    """Two objects that must share a ground set have different sizes."""


class BadPartition(ToolkitError):
    """Block sizes do not partition the coordinate set."""


class BadArity(ToolkitError):
    """Truth-table arity outside the supported range."""


class NotAnExtension(ToolkitError):
    """A linear order fails to extend the poset relation."""


class GuardExceeded(ToolkitError):
    """A search, encoder or bounds-table guard (element count, extension
    count, arity, table size) tripped."""


class FixedPhiArityMismatch(ToolkitError):
    """A fixed truth table's arity differs from the requested order count."""


class DecodeInconsistent(ToolkitError):
    """A decoded model produced a realizer that fails verification."""


class SolverLaunchFailed(ToolkitError):
    """The external solver process could not be started."""


class SolverTimeout(ToolkitError):
    """The external solver ran past its time limit and was stopped."""


class UnparseableOutput(ToolkitError):
    """External solver output carried no recognizable result line."""


class ModelCheckFailed(ToolkitError):
    """An external solver's model violates at least one clause."""


class ParseError(ToolkitError):
    """A text-format document (poset, realizer file) is malformed or unreadable."""


class UsageError(ToolkitError):
    """A command-line spec string or flag combination is invalid."""
