"""Exception types shared across the package."""


class MalformedInputError(ValueError):
    """Input violates a structural precondition (e.g. zero denominator)."""


class ShapeError(ValueError):
    """Operands have incompatible truncation orders or sizes."""


class EmptyOrderError(ShapeError):
    """A derivative was requested on a series with no room to drop an order."""


class PoleAtOriginError(ValueError):
    """A closed form cannot be expanded as a power series around u = s = 0."""


class RealnessViolationError(ValueError):
    """An expansion that must be real retained a nonzero imaginary part."""


class UnsupportedWeightError(ValueError):
    """A cohomology weight outside the supported set was supplied."""


class OutOfScopeError(ValueError):
    """The requested invariant is intentionally not computed (degree-zero data)."""


class ResourceBudgetError(RuntimeError):
    """An enumeration exceeded the configured budget."""

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget


class DegenerateBasisError(ValueError):
    """A basis block is not every labelling of its partition by 1, E_1..E_r, once."""
