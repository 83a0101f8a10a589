"""Evaluation budget guarding cochain-basis enumerations and Stasheff joins."""

from __future__ import annotations

import os

from ..errors import BudgetExceeded, UsageError

DEFAULT_BUDGET = 10_000_000
ENV_VAR = "THD_BUDGET"


def resolve_budget(explicit=None) -> int:
    """Explicit value, else the THD_BUDGET environment variable, else default."""
    if explicit is not None:
        limit = int(explicit)
    else:
        env = os.environ.get(ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            limit = int(env)
        except ValueError:
            raise UsageError(f"{ENV_VAR} must be an integer, not {env!r}") from None
    if limit < 0:
        raise UsageError(f"the evaluation budget must be >= 0, not {limit}")
    return limit


class Budget:
    """A consumable counter of evaluations (cochain keys, differential terms, Stasheff
    joins); a key's terms are charged at once, so ``spent`` can pass ``limit`` by more than one."""

    def __init__(self, limit=None):
        self.limit = resolve_budget(limit)
        self.spent = 0

    def charge(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceeded(
                f"evaluation budget exhausted ({self.spent} > {self.limit}); "
                f"raise it via --budget or {ENV_VAR}"
            )
