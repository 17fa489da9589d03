import pytest

from symtotient import symfield


@pytest.fixture(autouse=True)
def _cold_closed_units():
    # symfield memoizes closed local unit counts for the life of the process;
    # each test starts cold, so call counts do not depend on test order
    symfield._CLOSED_UNITS.clear()
