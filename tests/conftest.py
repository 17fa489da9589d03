import pytest

from symtotient import symfield


@pytest.fixture(autouse=True)
def _cold_local_units():
    # symfield memoizes local unit counts, closed and counted, for the life of
    # the process; each test starts cold, so call counts do not depend on
    # test order
    symfield._LOCAL_UNITS.clear()
