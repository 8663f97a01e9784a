"""Exception types shared across the package."""


class RedjumpsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RedjumpsError):
    """A reduction graph violates the data-model invariants.

    Carries ``violations``, the tuple of every Violation the constructor
    found, so callers can render per-violation messages.
    """

    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = violations

    def __reduce__(self):  # copy and pickle through __init__, which needs the violations
        return type(self), (*self.args, self.violations)


class UnknownVertex(RedjumpsError):
    pass


class UnknownEdge(RedjumpsError):
    pass


class NotContractible(RedjumpsError):
    """blow_down precondition fails (genus, degree or self-intersection)."""


class WouldCreateLoop(RedjumpsError):
    """Contracting this vertex would identify its two edges into a loop."""


class NotMinimal(RedjumpsError):
    """Operation defined only on minimal graphs was given a non-minimal one."""


class PreconditionFailed(RedjumpsError):
    pass


class InternalInconsistency(RedjumpsError):
    """A theorem-backed invariant failed: implementation or input bug."""


class OverBudget(RedjumpsError):
    """A candidate scan would exceed the work budget (jumps.WORK_BUDGET).

    The message names the count of candidates, or the largest multiplicity
    (a lower bound for it) when that alone exceeds the budget.
    """


class SingularMatrix(RedjumpsError):
    pass


class NotASublattice(RedjumpsError):
    """inner is not contained in outer (outer^-1 * inner not integral)."""


class ShapeMismatch(RedjumpsError):
    pass


class NotSaturatedInput(RedjumpsError):
    """The monoid P failed its own bounded saturation check."""


class UnsupportedType(RedjumpsError):
    """Requested catalog entry has no strict-normal-crossings dual graph."""


class ParseError(RedjumpsError):
    pass
