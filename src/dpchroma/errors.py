"""Exception types shared across the package.

Every concrete class derives from exactly one of two bases, and the base
picks the CLI exit code.  InputError (exit 2) covers bad files and
arguments, instances the oracles refuse to attempt, and preconditions the
input breaks.  Diagnostic (exit 3) covers failed internal invariants and
build-time validations: those indicate a bug rather than bad input.
"""


class DPChromaError(Exception):
    pass


class InputError(DPChromaError):
    """Bad input, or an instance refused before any work: exit 2."""


class Diagnostic(DPChromaError):
    """A check the algorithms rely on failed, so a bug: exit 3."""


class MalformedInput(InputError):
    """Raised on unparsable or inconsistent input files.

    line is 1-based; None when the problem is not tied to a line.
    """

    def __init__(self, msg, line=None):
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)
        self.line = line


class NotConnected(InputError):
    """An operation that needs a connected graph got a disconnected one."""


class NotDegenerate(Diagnostic):
    """No vertex order with the requested back-degree bound exists."""

    def __init__(self, d):
        super().__init__("graph is not %d-degenerate" % d)
        self.d = d


class PreconditionViolated(InputError):
    """Caller broke a documented precondition of a pipeline entry point."""


class InstanceTooLarge(InputError):
    """The exact oracles refuse instances past their budget guards."""


class BadRotation(InputError):
    """Rotation system is not a neighbor permutation or fails the Euler check."""


class ReconstructionFailed(Diagnostic):
    """A built gadget failed one of its build-time validations."""


class GDPTreeTight(Diagnostic):
    """degree_dp_color got a tight cover on a GDP-tree; no coloring exists."""


class InternalInvariantBreach(Diagnostic):
    """An invariant the algorithms rely on failed.  Always a bug."""


class A2Unattainable(Diagnostic):
    """Visibility augmentation could not reach the one-component-per-face form."""


class EmptyResidualList(Diagnostic):
    """A vertex scheduled for greedy coloring has no color left."""


class ProtectorInfeasible(Diagnostic):
    """A protection step found every color of the protector forbidden."""


class ListTooSmall(InputError):
    """Sublist selection ran out of colors before reaching the target size."""


class DegreeBelowS(Diagnostic):
    """A contracted component sees fewer than s branch vertices."""


class PeelBoundExceeded(Diagnostic):
    """Min-degree peeling hit a vertex of larger degree than guaranteed."""


class GenerationFailed(InputError):
    """A generated instance failed its own validity checks."""
