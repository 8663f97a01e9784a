"""Exception types shared across the package."""


class RedjumpsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RedjumpsError):
    """A reduction graph violates the data-model invariants.

    Carries the offending report (when produced by ``validate``) so callers
    can render per-violation messages.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonIntegralSelfIntersection(ValidationError):
    """N_v does not divide the sum of neighbouring multiplicities."""


class InconsistentGeometry(ValidationError):
    """The labels derive a genus below 1 (``ReductionGraph.genus()``)."""


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

    ``candidates`` is the count of candidates, or the largest multiplicity
    (a lower bound for it) when that alone exceeds the budget.
    """

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


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
