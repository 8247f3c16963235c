"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`WvaError`, so callers
can catch one base class. The subclasses mirror the distinct failure modes of
the model: dimension mismatches, contract violations on inputs, finite-difference
steps that move the state too far, and the physically meaningful degeneracies
(orthogonal or vanishing postselection, undefined estimators).
"""


class WvaError(Exception):
    """Base class for all toolkit errors."""


class ModelDimensionError(WvaError):
    """Operands do not fit the qubit-system / qubit-meter model."""


class ContractViolationError(WvaError):
    """An input violates a documented precondition or type invariant."""


class StepTooLargeError(WvaError):
    """Finite-difference step moved the state too far for a stable derivative."""


class UnsupportedInputError(WvaError):
    """Input outside the domain where a closed-form result is proven."""


class OrthogonalPostselectionError(WvaError):
    """Pre- and postselection states are orthogonal; the weak value is undefined."""


class VanishingPostselectionError(WvaError):
    """Postselection probability fell below the numerical floor."""


class InfinitePreparationCostError(WvaError):
    """Requested cost point has vanishing probabilistic information per sample."""


class EstimationUndefinedError(WvaError):
    """No postselected samples were recorded, so no estimate exists."""


class NonTerminationError(WvaError):
    """A stopping rule could not be satisfied within the preparation budget."""
