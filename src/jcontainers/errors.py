"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, BudgetError -> 3,
UndecidedError -> 4, any other exception -> 5 (internal error).  Theorem
violations are reported in-band (families carry a ``violations`` list) and
map to exit code 1.
"""


class InputError(ValueError):
    """A precondition on user-supplied data failed."""


class BudgetError(RuntimeError):
    """A search or enumeration exceeded its configured budget.

    ``partial`` carries whatever was computed before the budget ran out
    (a count for enumerations, an explored-node count for searches).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UndecidedError(RuntimeError):
    """A strict-inequality decision sits inside the solver tolerance band.

    Pipelines that need a hard YES/NO raise this instead of guessing;
    ``detail`` names the offending sub-instance.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
