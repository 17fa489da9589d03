"""Enumeration budget: a hard cap on brute-force tuple-space sizes.

Exceeding the cap raises, never truncates, so a verification sweep can
only pass on a complete count.
"""

import os

DEFAULT_BUDGET = 20_000_000

ENV_VAR = "SYMTOTIENT_BUDGET"


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed the tuple budget."""


def resolve_budget(budget: int | None = None) -> int:
    """Effective tuple cap: explicit argument, else SYMTOTIENT_BUDGET, else default.

    A SYMTOTIENT_BUDGET that is not a finite number raises ValueError.
    """
    if budget is not None:
        return int(budget)
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        # scientific notation such as 2e7; inf and nan fail to convert
        return int(float(raw))
    except (ValueError, OverflowError):
        raise ValueError(f"{ENV_VAR} must be a finite number of tuples, got {raw!r}") from None


def check_budget(space: int, budget: int | None, what: str) -> int:
    """Raise BudgetExceededError unless `space` tuples fit under the cap."""
    limit = resolve_budget(budget)
    if space > limit:
        raise BudgetExceededError(
            f"{what} needs {space} tuples, over the enumeration budget of {limit}; "
            f"raise it via {ENV_VAR} or an explicit budget argument"
        )
    return limit
