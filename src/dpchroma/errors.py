"""Exception types shared across the package.

Diagnostics are split into input problems (bad files, bad arguments),
instances we refuse to attempt (size guards), and internal invariant
failures that indicate a bug rather than bad input.
"""


class DPChromaError(Exception):
    pass


class MalformedInput(DPChromaError):
    """Raised on unparsable or inconsistent input files.

    line is 1-based; None when the problem is not tied to a line.
    """

    def __init__(self, msg, line=None):
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)
        self.line = line


class NotConnected(DPChromaError):
    """An operation that needs a connected graph got a disconnected one."""


class NotDegenerate(DPChromaError):
    """No vertex order with the requested back-degree bound exists."""

    def __init__(self, d):
        super().__init__("graph is not %d-degenerate" % d)
        self.d = d


class PreconditionViolated(DPChromaError):
    """Caller broke a documented precondition of a pipeline entry point."""


class InstanceTooLarge(DPChromaError):
    """The exact oracles refuse instances past their budget guards."""


class BadRotation(DPChromaError):
    """Rotation system is not a neighbor permutation or fails the Euler check."""


class ReconstructionFailed(DPChromaError):
    """A built gadget failed one of its build-time validations."""


class GDPTreeTight(DPChromaError):
    """degree_dp_color got a tight cover on a GDP-tree; no coloring exists."""


class InternalInvariantBreach(DPChromaError):
    """An invariant the algorithms rely on failed.  Always a bug."""


class A2Unattainable(DPChromaError):
    """Visibility augmentation could not reach the one-component-per-face form."""


class EmptyResidualList(DPChromaError):
    """A vertex scheduled for greedy coloring has no color left."""


class ProtectorInfeasible(DPChromaError):
    """A protection step found every color of the protector forbidden."""


class ListTooSmall(DPChromaError):
    """Sublist selection ran out of colors before reaching the target size."""


class DegreeBelowS(DPChromaError):
    """A contracted component sees fewer than s branch vertices."""


class PeelBoundExceeded(DPChromaError):
    """Min-degree peeling hit a vertex of larger degree than guaranteed."""


class GenerationFailed(DPChromaError):
    """A generated instance failed its own validity checks."""
