"""Enumeration budget: a hard cap on brute-force tuple-space sizes.

Exceeding the cap raises, never truncates, so a verification sweep can
only pass on a complete count.
"""

import math
import os

DEFAULT_BUDGET = 20_000_000

ENV_VAR = "SYMTOTIENT_BUDGET"


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed the tuple budget."""


def resolve_budget(budget: int | None = None) -> int:
    """Effective tuple cap: explicit argument, else SYMTOTIENT_BUDGET, else default.

    A negative cap, or a SYMTOTIENT_BUDGET that is not a finite number, raises
    ValueError naming where it came from.  A cap of 0 allows closed forms only.
    """
    source = "budget"
    if budget is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return DEFAULT_BUDGET
        source = ENV_VAR
        try:
            # int() keeps large values exact; float() reads 2e7
            budget = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
        except ValueError:
            budget = math.nan
        if not -math.inf < budget < math.inf:
            raise ValueError(f"{ENV_VAR} must be a finite number of tuples, got {raw!r}")
    # the sign is checked before truncation, so -0.5 is refused rather than read as 0
    if budget < 0:
        raise ValueError(f"{source} must be a nonnegative number of tuples, got {budget}")
    return int(budget)


def check_budget(space: int, budget: int | None, what: str) -> int:
    """Raise BudgetExceededError unless `space` tuples fit under the cap."""
    limit = resolve_budget(budget)
    if space > limit:
        raise BudgetExceededError(
            f"{what} needs {space} tuples, over the enumeration budget of {limit}; "
            f"raise it via {ENV_VAR} or an explicit budget argument"
        )
    return limit
