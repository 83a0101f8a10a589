"""Typed errors shared across the library."""


class PreconditionViolation(ValueError):
    """A stated hypothesis of the requested computation fails.

    Carries enough context to name the failed hypothesis in diagnostics.
    """


class ExactnessViolation(RuntimeError):
    """Rank propagation along an exact sequence produced an impossible value.

    This signals an internal inconsistency between the dimension formulas
    feeding the sequence, never a bad user input.
    """


class NotACocycle(ValueError):
    """The supplied cochain is not closed, so the deformation is undefined."""


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration outgrew the configured evaluation budget."""


class UsageError(ValueError):
    """A command-line argument or environment setting cannot be used as given."""
