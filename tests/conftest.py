import pytest

from symtotient import totient


@pytest.fixture(autouse=True)
def _cold_closed_units():
    # totient memoizes closed local unit counts for the life of the process;
    # each test starts cold, so call counts do not depend on test order
    totient._CLOSED_UNITS.clear()
