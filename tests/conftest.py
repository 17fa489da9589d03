import pytest

from symtotient import symfield


@pytest.fixture(autouse=True)
def _cold_local_units():
    # symfield memoizes local unit counts, closed and counted, their plans
    # and the recurrence's zero-count plans for the life of the process; each
    # test starts cold, so call counts do not depend on test order
    symfield._LOCAL_UNITS.clear()
    symfield._unit_plan.cache_clear()
    symfield._extend.cache_clear()
